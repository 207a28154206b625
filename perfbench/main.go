// Command perfbench is the repository's benchmark. It runs one seeded
// workload against a Hare deployment on the parallel virtual-time engine,
// checks every call's result and the final namespace, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one JSON
// object on the last line of standard output.
//
//	go build -o perfbench . && ./perfbench -workload meta-storm -seed 1 -seconds 10 -trace 0
//
// run.py builds it from the repository checkout and passes its arguments on.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
	"unsafe"
)

// An untraced run measures its timed rounds in slices, each on its own
// freshly built deployment replaying the same seeded stream, so the
// run-to-run variation of one deployment's virtual time (NOTES.md, known
// defects) averages over the slices. Each slice's build and preload is one
// setup sample; while the samples total less than setupBudget seconds, more
// setup-only samples follow, up to maxSetups. setup_s is their median.
const (
	numSlices   = 3
	maxSetups   = 9
	setupBudget = 3.0
)

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: meta-storm, data-rw or durable-churn")
	seed := flag.Uint64("seed", 1, "seed of the generated operation stream")
	seconds := flag.Int("seconds", 10, "wall seconds of timed rounds to run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from probes and a traced run")
	out := flag.String("out", ".bench_build/out", "directory for the spans, CPU profile and Chrome trace")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d: %v\n", *name, *seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload. The untraced timed rounds give the end-to-end
// metrics; with traced set they give the client and counter per-layer
// metrics instead, followed by the layer probes and a traced replay.
func run(name string, seed uint64, seconds time.Duration, traced bool, out string) (*report, error) {
	n := numSlices
	if traced {
		n = 1
	}
	var all []*slice
	t := &timed{}
	var setup []float64
	var perSlice []metrics
	for len(all) < n || (!traced && len(all) < maxSetups && sum(setup) < setupBudget) {
		budget := seconds / time.Duration(n)
		if len(all) >= n {
			budget = 0
		}
		s, err := runSlice(name, seed, budget, spanBytes(t.spans))
		if err != nil {
			return nil, err
		}
		all = append(all, s)
		setup = append(setup, s.setup)
		if s.t != nil {
			sm := metrics{}
			timedMetrics(sm, s.t)
			sm.set("live_heap_mib", float64(s.heap)/(1<<20), "MiB")
			perSlice = append(perSlice, sm)
			t.merge(s.t)
			s.t.spans = nil // the pooled copy is the one kept
		}
	}
	var attempted, failed int
	var first *failure
	for _, s := range all {
		attempted += s.calls
		failed += s.failed
		if first == nil {
			first = s.first
		}
	}

	m := metrics{}
	if traced {
		layerMetrics(m, t)
	} else {
		// Each end-to-end metric is the median over the slices, so one
		// deployment that lands on a slow virtual schedule (NOTES.md, known
		// defects) does not move it.
		for k, v := range perSlice[0] {
			var vals []float64
			for _, sm := range perSlice {
				vals = append(vals, sm[k].Value)
			}
			m.set(k, median(vals), v.Unit)
		}
		m.set("setup_s", median(setup), "s")
		m.set("correct_op_share", 1-float64(failed)/float64(attempted), "share")
	}
	if err := writeSpans(fmt.Sprintf("%s/%s-spans.csv", out, name), t.spans); err != nil {
		return nil, err
	}
	if first != nil {
		fmt.Printf("FAIL workload %s seed %d: %d of %d calls differ; first: %s\n", name, seed, failed, attempted, first)
		fmt.Fprintf(os.Stderr, "FAIL workload %s seed %d: first failing call: %s\n", name, seed, first)
	}
	summarize(name, seed, all, t, attempted, failed)

	if traced {
		t.spans = nil
		runtime.GC()
		if err := probes(m); err != nil {
			return nil, err
		}
		if err := tracedReplay(m, name, seed, t, seconds, out); err != nil {
			return nil, err
		}
	}
	if !m.isFinite() {
		return nil, fmt.Errorf("a metric is not a finite number: %v", m)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %16.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// spanBytes is the heap a span slice's backing array takes.
func spanBytes(s []span) uint64 { return uint64(cap(s)) * uint64(unsafe.Sizeof(span{})) }

// slice is one deployment's part of a run.
type slice struct {
	setup         float64 // wall seconds to build the deployment and preload it
	t             *timed  // nil for a setup-only slice
	heap          uint64  // live heap after the rounds, spans excluded
	calls, failed int
	first         *failure
}

// runSlice generates the stream afresh, builds and preloads a deployment,
// runs timed rounds for budget and verifies the namespace; with a zero
// budget it only sets up. It stops the deployment before returning. held is
// the bytes of spans the caller keeps from earlier slices, left out of the
// live heap with this slice's own.
func runSlice(name string, seed uint64, budget time.Duration, held uint64) (*slice, error) {
	wl, err := newWorkload(name, seed, false)
	if err != nil {
		return nil, err
	}
	sp := wl.spec()
	rec := newRecorder(wl.writePool(), sp.workers)
	pre := wl.preload()
	// Start every setup cold, as in a fresh process: earlier slices' memory
	// goes back to the OS first, so the build pays its page faults.
	debug.FreeOSMemory()
	t0 := time.Now()
	d, err := deploy(sp, false)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := d.runPhases(pre, rec, "preload"); err != nil {
		return nil, err
	}
	s := &slice{setup: time.Since(t0).Seconds()}
	if budget > 0 {
		if s.t, err = runRounds(d, wl, rec, budget, 1<<30); err != nil {
			return nil, err
		}
		s.t.spans = rec.takeSpans()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.heap = ms.HeapAlloc - held - spanBytes(s.t.spans)
		if err := d.runPhases(wl.verify(), rec, "verify"); err != nil {
			return nil, err
		}
	}
	s.calls, s.failed = rec.totals()
	s.first = rec.firstFailure()
	return s, nil
}

// runRounds runs timed rounds, in order, until the wall-clock budget is
// spent or maxRounds have run, and measures each on both clocks. On a
// durable workload it checkpoints every server between rounds, timed apart.
func runRounds(d *deployment, wl workload, rec *recorder, budget time.Duration, maxRounds int) (*timed, error) {
	c, err := d.startCrew(rec)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	t := &timed{}
	deadline := time.Now().Add(budget)
	var m0, m1 runtime.MemStats
	for r := 0; r < maxRounds && (r == 0 || time.Now().Before(deadline)); r++ {
		phases := wl.round()
		calls := 0
		for _, ph := range phases {
			for _, ops := range ph {
				calls += len(ops)
			}
		}
		rec.reserve(phases)
		label := fmt.Sprintf("round %d", r)
		c0 := snapshot(d.sys)
		runtime.ReadMemStats(&m0)
		var rt phaseTime
		for _, ph := range phases {
			pt := c.runPhase(ph, label)
			rt.wall += pt.wall
			rt.virt += pt.virt
		}
		runtime.ReadMemStats(&m1)
		t.layers.add(c0, snapshot(d.sys))
		t.mallocs += m1.Mallocs - m0.Mallocs
		t.rounds = append(t.rounds, rt)
		t.calls = append(t.calls, calls)
		if wl.spec().durable {
			if err := checkpointAll(d, t); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// checkpointAll checkpoints every server, timing each call on the wall
// clock and by the server's virtual clock advance.
func checkpointAll(d *deployment, t *timed) error {
	for i := 0; i < d.sys.NumServers(); i++ {
		b0 := d.sys.ServerStats()[i].BusyCycles
		t0 := time.Now()
		if err := d.sys.Checkpoint(i); err != nil {
			return err
		}
		t.ckptHost = append(t.ckptHost, float64(time.Since(t0))/1e6)
		b1 := d.sys.ServerStats()[i].BusyCycles
		t.ckptVirt = append(t.ckptVirt, float64(b1-b0)/clockHz*1e6)
	}
	return nil
}

// summarize prints the run's shape and a determinism check: every slice
// replays the same stream, so the virtual time of the rounds all slices ran
// would be identical on a deterministic engine.
func summarize(name string, seed uint64, all []*slice, t *timed, attempted, failed int) {
	calls, wall, _ := t.totals(len(t.rounds))
	fmt.Printf("workload %s seed %d: %d setups; %d timed rounds, %d timed calls (latency samples) in %.3f s wall at GOMAXPROCS %d; %d calls checked, %d failed (failed_op_share %g)\n",
		name, seed, len(all), len(t.rounds), calls, wall.Seconds(), runtime.GOMAXPROCS(0), attempted, failed, float64(failed)/float64(attempted))
	k := len(t.rounds)
	for _, s := range all {
		if s.t != nil {
			k = min(k, len(s.t.rounds))
		}
	}
	var virt, host []float64
	for _, s := range all {
		if s.t != nil {
			c, w, v := s.t.totals(k)
			virt = append(virt, v/clockHz)
			host = append(host, float64(c)/w.Seconds()/1e3)
		}
	}
	if len(virt) > 1 {
		fmt.Printf("virtual seconds of the first %d rounds, per slice: %.6g (spread %.2f%%); host kops/s: %.4g\n",
			k, virt, 100*(slices.Max(virt)-slices.Min(virt))/slices.Min(virt), host)
	}
}

// writeSpans writes the client-boundary spans as CSV.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "op,worker,host_start_ns,host_end_ns,virt_start_cycles,virt_end_cycles,errno,mismatch\n")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%t\n", s.kind, s.worker, s.hostStart, s.hostEnd, s.virtStart, s.virtEnd, s.err, s.bad)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
