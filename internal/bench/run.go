package bench

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is one benchmark measurement on one backend.
type Result struct {
	Benchmark string
	Backend   string
	Ops       int
	Elapsed   sim.Cycles
	Seconds   float64
	// Throughput is operations per (virtual) second.
	Throughput float64
	// OpMix is the share of each operation class issued during the timed
	// region (used for Figure 5).
	OpMix map[workload.OpClass]float64
	// OpTotal is the total number of POSIX calls observed by the counter.
	OpTotal uint64
	// Econ holds the message-economy counters accumulated during the timed
	// region (messages, bytes, client RPCs, batched sub-ops, queueing
	// delay); nil on backends without a message layer.
	Econ *stats.Economy
	// Imbalance is the max/mean ratio of per-server requests served during
	// the timed region (1.0 = perfectly balanced; 0 on backends without
	// per-server load counters).
	Imbalance float64
	// Lat holds per-op-kind latency quantiles (virtual cycles) for the
	// timed region, keyed by the root span name ("open", "read", ...);
	// nil unless the backend was built with tracing on.
	Lat map[string]stats.Quantiles
	// Spans are the traced spans recorded during the timed region (ring
	// contents, oldest first); nil unless tracing was on. The CLI's
	// -trace flag exports them as Chrome trace_event JSON.
	Spans []trace.Span
}

// RunWorkload builds a fresh backend from the factory, runs the workload's
// setup phase, then measures the timed region in virtual time.
func RunWorkload(f Factory, w workload.Workload, scale float64) (Result, error) {
	b, err := f(w.Placement())
	if err != nil {
		return Result{}, err
	}
	defer b.Close()
	return b.run([]workload.Workload{w}, scale, nil, nil)
}

// run runs ws back to back on b, each workload's setup and then its timed
// region, and sums the timed regions: setup is never measured. The op mix,
// latencies and spans cover the last region only. beforeLast, when non-nil,
// runs just before the last workload's setup; host, when non-nil, measures
// the timed regions' host cost.
func (b *Backend) run(ws []workload.Workload, scale float64, beforeLast func() error, host *hostCost) (Result, error) {
	counter := workload.NewOpCounter()
	env := &workload.Env{Procs: b.Procs, Cores: b.Cores, Counter: counter, Scale: scale, Faults: b.Faults, Elastic: b.Elastic}
	r := Result{Backend: b.Name}
	var econ stats.Economy
	var loads []uint64
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
		if i == len(ws)-1 && beforeLast != nil {
			if err := beforeLast(); err != nil {
				return Result{}, err
			}
		}
		if err := w.Setup(env); err != nil {
			return Result{}, fmt.Errorf("bench: %s setup on %s: %w", w.Name(), b.Name, err)
		}
		counter.Reset()
		var econBase stats.Economy
		var loadsBase []uint64
		if b.Sys != nil {
			// Restrict the latency histograms and span ring to the timed region.
			b.Sys.Tracer().Reset()
			econBase = b.Sys.MessageEconomy()
			loadsBase = b.Sys.ServerLoads()
		}
		start := b.Now()
		host.begin()
		ops, err := w.Run(env)
		if err != nil {
			return Result{}, fmt.Errorf("bench: %s run on %s: %w", w.Name(), b.Name, err)
		}
		host.end()
		r.Elapsed += b.Now() - start
		if ops <= 0 {
			ops = int(counter.Total())
		}
		r.Ops += ops
		if b.Sys != nil {
			econ = econ.Add(b.Sys.MessageEconomy().Sub(econBase))
			// The fleet may have grown mid-run; servers beyond the base
			// snapshot started from zero.
			for i, l := range b.Sys.ServerLoads() {
				if i < len(loadsBase) {
					l -= loadsBase[i]
				}
				if i < len(loads) {
					loads[i] += l
				} else {
					loads = append(loads, l)
				}
			}
		}
	}
	if r.Elapsed == 0 {
		r.Elapsed = 1
	}
	r.Benchmark = strings.Join(names, "+")
	r.Seconds = b.Seconds(r.Elapsed)
	r.Throughput = float64(r.Ops) / r.Seconds
	r.OpMix = counter.Breakdown()
	r.OpTotal = counter.Total()
	if b.Sys != nil {
		r.Econ = &econ
		r.Imbalance = stats.Imbalance(loads)
		if tr := b.Sys.Tracer(); tr != nil {
			r.Lat = tr.OpQuantiles()
			r.Spans = tr.Spans()
		}
	}
	return r, nil
}

// RunSuite runs every provided workload on backends built by the factory and
// returns the results keyed by benchmark name.
func RunSuite(f Factory, ws []workload.Workload, scale float64) (map[string]Result, error) {
	out := make(map[string]Result, len(ws))
	for _, w := range ws {
		r, err := RunWorkload(f, w, scale)
		if err != nil {
			return nil, err
		}
		out[w.Name()] = r
	}
	return out, nil
}

// Speedup is a convenience: the ratio of two throughputs (or equivalently
// inverse runtimes for the same amount of work).
func Speedup(base, other Result) float64 {
	if base.Throughput == 0 {
		return 0
	}
	return other.Throughput / base.Throughput
}
