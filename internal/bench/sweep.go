package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Sweeps (`hare-bench -sweep NAME`): every evaluation past the paper's
// figures is the same A/B loop as its §5 — build a deployment per variant,
// run a workload suite on it, read the counters. One driver runs them all,
// measures every point the same way, and writes one JSON schema and one
// table layout. DESIGN.md §7–§13 describe the techniques each sweep
// isolates.

// Action is work a variant does besides running its workloads.
type Action uint8

const (
	// Checkpoint snapshots every server just before the case's last
	// workload, so a later recovery replays only that workload's records.
	Checkpoint Action = 1 << iota
	// Recover crashes server 0 after the run and recovers it from its log
	// (and checkpoint).
	Recover
	// RecoverAll does what Recover does to every server in turn.
	RecoverAll
	// Failover crashes server 0 after the run and promotes its replica.
	Failover
)

// Variant is one named deployment shape of a sweep.
type Variant struct {
	Name string
	// Opts changes the case's default deployment (DefaultHare); nil keeps
	// it.
	Opts  func(*HareOptions)
	After Action
}

// Case is one deployment size and the workloads run back to back on it.
type Case struct {
	Workloads []workload.Workload
	Servers   int // 0 means one server per core
	Cores     int // 0 means the run's core count
	Files     int // namespace size, recorded for the scale rungs
}

// Sweep is a named experiment: every case runs under every variant. The
// first variant is the reference the table's "/ref" columns divide by.
type Sweep struct {
	Name, Title, Note string
	Cases             []Case
	Variants          []Variant
	// Columns name the table's metric columns (keys of metrics); a "/ref"
	// suffix prints the metric's ratio to the reference variant instead.
	Columns []string
}

// Point is one (case, variant) measurement. Every sweep writes this schema.
type Point struct {
	Benchmark string `json:"benchmark"`
	Servers   int    `json:"servers"`
	Files     int    `json:"files,omitempty"`
	Variant   string `json:"variant"`
	Ops       int    `json:"ops"`
	// Seconds is the virtual time of the timed regions; Econ and Imbalance
	// cover the same regions.
	Seconds   float64       `json:"seconds"`
	Econ      stats.Economy `json:"econ"`
	Imbalance float64       `json:"imbalance"`
	// The WAL and replication counters are deployment totals at the end of
	// the run, summed over servers: setup is logged and shipped too.
	// ReplLag is the widest gap any follower showed.
	WALRecords uint64 `json:"wal_records"`
	WALFlushes uint64 `json:"wal_flushes"`
	WALBytes   uint64 `json:"wal_bytes"`
	ReplMsgs   uint64 `json:"repl_msgs"`
	ReplBytes  uint64 `json:"repl_bytes"`
	ReplLag    uint64 `json:"repl_lag"`
	// Host cost of the timed regions. PeakRSSBytes is the process's
	// high-water mark, so only a sweep's largest point owns its value.
	WallSeconds  float64 `json:"wall_seconds"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	HeapBytes    uint64  `json:"heap_bytes"`
	PeakRSSBytes uint64  `json:"peak_rss_bytes"`
	// Present only where the deployment or workload produces them: per-op
	// latency quantiles in virtual cycles and retained spans (tracing on),
	// the elastic workload's two phases, one entry per recovered server for
	// Recover and RecoverAll, and the promotion stall and lost acked records for Failover.
	Lat          map[string]stats.Quantiles `json:"lat,omitempty"`
	Spans        int                        `json:"spans,omitempty"`
	PhaseSeconds []float64                  `json:"phase_seconds,omitempty"`
	Recovery     []Recovery                 `json:"recovery,omitempty"`
	PromoteMs    float64                    `json:"promote_ms,omitempty"`
	LostRecords  uint64                     `json:"lost_records,omitempty"`
}

// Recovery is one server's crash and recovery.
type Recovery struct {
	Records   int     `json:"records"`
	LogBytes  int64   `json:"log_bytes"`
	CkptBytes int     `json:"ckpt_bytes"`
	Ms        float64 `json:"ms"`
}

// Run measures every case under every variant at the given workload scale
// on a machine of the given core count (a case may fix its own). Points
// come out case by case, variants in order. A case is skipped when some
// variant's fleet does not fit the machine.
func (s Sweep) Run(scale float64, cores int) ([]Point, error) {
	var out []Point
	for _, c := range s.Cases {
		opts := make([]HareOptions, len(s.Variants))
		fits := true
		n := cores
		if c.Cores > 0 {
			n = c.Cores
		}
		for i, v := range s.Variants {
			opts[i] = DefaultHare(n)
			if c.Servers > 0 {
				opts[i].Servers = c.Servers
			}
			if v.Opts != nil {
				v.Opts(&opts[i])
			}
			fits = fits && max(opts[i].Servers, opts[i].MaxServers) <= opts[i].Cores
		}
		if !fits {
			continue
		}
		for i, v := range s.Variants {
			p, err := runPoint(opts[i], c, v, scale)
			if err != nil {
				return nil, fmt.Errorf("bench: sweep %s, variant %s: %w", s.Name, v.Name, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// runPoint builds one deployment, runs the case on it, and then the
// variant's after-run actions.
func runPoint(opts HareOptions, c Case, v Variant, scale float64) (Point, error) {
	b, err := HareFactory(opts)(c.Workloads[0].Placement())
	if err != nil {
		return Point{}, err
	}
	defer b.Close()
	sys := b.Sys
	var beforeLast func() error
	if v.After&Checkpoint != 0 {
		beforeLast = sys.CheckpointAll
	}
	var host hostCost
	r, err := b.run(c.Workloads, scale, beforeLast, &host)
	if err != nil {
		return Point{}, err
	}
	p := Point{
		Benchmark:    r.Benchmark,
		Servers:      opts.Servers,
		Files:        c.Files,
		Variant:      v.Name,
		Ops:          r.Ops,
		Seconds:      r.Seconds,
		Econ:         *r.Econ,
		Imbalance:    r.Imbalance,
		WallSeconds:  host.wall,
		AllocsPerOp:  float64(host.mallocs) / float64(max(r.Ops, 1)),
		HeapBytes:    host.heap,
		PeakRSSBytes: peakRSSBytes(),
		Lat:          r.Lat,
		Spans:        len(r.Spans),
	}
	for _, st := range sys.WalStats() {
		p.WALRecords += st.Records
		p.WALFlushes += st.Flushes
		p.WALBytes += st.Bytes
	}
	total := sys.MessageEconomy()
	p.ReplMsgs, p.ReplBytes = total.ReplMsgs, total.ReplBytes
	for _, rs := range sys.ReplicaStats() {
		p.ReplLag = max(p.ReplLag, rs.Lag())
	}
	if e, ok := c.Workloads[len(c.Workloads)-1].(*workload.Elastic); ok {
		p.PhaseSeconds = []float64{b.Seconds(e.PreCycles), b.Seconds(e.PostCycles)}
	}
	ms := func(cyc sim.Cycles) float64 { return b.Seconds(cyc) * 1000 }
	victims := 0
	switch {
	case v.After&RecoverAll != 0:
		victims = sys.NumServers()
	case v.After&Recover != 0:
		victims = 1
	}
	for i := 0; i < victims; i++ {
		if err := sys.Crash(i); err != nil {
			return Point{}, err
		}
		st, err := sys.Recover(i)
		if err != nil {
			return Point{}, err
		}
		p.Recovery = append(p.Recovery, Recovery{st.Records, st.Bytes, st.CheckpointBytes, ms(st.Cycles)})
	}
	if v.After&Failover != 0 {
		if err := sys.Crash(0); err != nil {
			return Point{}, err
		}
		rep, err := sys.Failover(0)
		if err != nil {
			return Point{}, err
		}
		if rep.Fallback {
			return Point{}, fmt.Errorf("failover of server 0 fell back to replay; the replica never caught up")
		}
		p.PromoteMs, p.LostRecords = ms(rep.StallCycles), rep.LostRecords
	}
	return p, nil
}

// metrics are the table columns a sweep can name.
var metrics = map[string]func(p Point) float64{
	"ops":        func(p Point) float64 { return float64(p.Ops) },
	"ms":         func(p Point) float64 { return p.Seconds * 1000 },
	"msgs/op":    func(p Point) float64 { return stats.PerOp(p.Econ.ClientRPCs, p.Ops) },
	"bytes":      func(p Point) float64 { return float64(p.Econ.Bytes) },
	"batched":    func(p Point) float64 { return float64(p.Econ.BatchedOps) },
	"queue Mcyc": func(p Point) float64 { return float64(p.Econ.QueueCycles) / 1e6 },
	"lines":      func(p Point) float64 { return float64(p.Econ.WbLines + p.Econ.InvLines) },
	"skipped":    func(p Point) float64 { return float64(p.Econ.SkipLines) },
	"moved":      func(p Point) float64 { return float64(p.Econ.MigEntries) },
	"imbalance":  func(p Point) float64 { return p.Imbalance },
	"phase A ms": func(p Point) float64 { return phase(p, 0) * 1000 },
	"phase B ms": func(p Point) float64 { return phase(p, 1) * 1000 },
	"wal recs":   func(p Point) float64 { return float64(p.WALRecords) },
	"flushes":    func(p Point) float64 { return float64(p.WALFlushes) },
	"recs/flush": func(p Point) float64 { return stats.PerOp(p.WALRecords, int(p.WALFlushes)) },
	"repl msgs":  func(p Point) float64 { return float64(p.ReplMsgs) },
	"repl KB":    func(p Point) float64 { return float64(p.ReplBytes) / 1024 },
	"lag":        func(p Point) float64 { return float64(p.ReplLag) },
	"replay ms": func(p Point) float64 {
		if len(p.Recovery) == 0 {
			return 0
		}
		return p.Recovery[0].Ms
	},
	"replayed":        func(p Point) float64 { return float64(recoveryTotal(p).Records) },
	"log bytes":       func(p Point) float64 { return float64(recoveryTotal(p).LogBytes) },
	"ckpt bytes":      func(p Point) float64 { return float64(recoveryTotal(p).CkptBytes) },
	"avg recovery ms": func(p Point) float64 { return recoveryTotal(p).Ms / float64(max(len(p.Recovery), 1)) },
	"max recovery ms": func(p Point) float64 {
		m := 0.0
		for _, r := range p.Recovery {
			m = max(m, r.Ms)
		}
		return m
	},
	"promote ms":  func(p Point) float64 { return p.PromoteMs },
	"lost":        func(p Point) float64 { return float64(p.LostRecords) },
	"spans":       func(p Point) float64 { return float64(p.Spans) },
	"p50":         func(p Point) float64 { return float64(hottestOp(p.Lat).P50) },
	"p99":         func(p Point) float64 { return float64(hottestOp(p.Lat).P99) },
	"files":       func(p Point) float64 { return float64(p.Files) },
	"wall s":      func(p Point) float64 { return p.WallSeconds },
	"kops/wall-s": func(p Point) float64 { return float64(p.Ops) / max(p.WallSeconds, 1e-9) / 1000 },
	"allocs/op":   func(p Point) float64 { return p.AllocsPerOp },
	"heap MiB":    func(p Point) float64 { return float64(p.HeapBytes) / (1 << 20) },
	"rss MiB":     func(p Point) float64 { return float64(p.PeakRSSBytes) / (1 << 20) },
}

func phase(p Point, i int) float64 {
	if i >= len(p.PhaseSeconds) {
		return 0
	}
	return p.PhaseSeconds[i]
}

// recoveryTotal sums a point's per-server recoveries.
func recoveryTotal(p Point) Recovery {
	var t Recovery
	for _, r := range p.Recovery {
		t.Records += r.Records
		t.LogBytes += r.LogBytes
		t.CkptBytes += r.CkptBytes
		t.Ms += r.Ms
	}
	return t
}

// hottestOp returns the quantiles of the op with the most recorded samples.
func hottestOp(lat map[string]stats.Quantiles) stats.Quantiles {
	var best string
	var bestQ stats.Quantiles
	for op, q := range lat {
		if q.N > bestQ.N || (q.N == bestQ.N && (best == "" || op < best)) {
			best, bestQ = op, q
		}
	}
	return bestQ
}

// Table renders one row per point with the sweep's metric columns; each
// "/ref" column divides by the reference variant's point of the same case.
func (s Sweep) Table(points []Point) *Table {
	t := &Table{
		Title:   s.Title,
		Columns: append([]string{"benchmark", "servers", "variant"}, s.Columns...),
		Note:    s.Note,
	}
	var ref Point
	for _, p := range points {
		if p.Variant == s.Variants[0].Name {
			ref = p
		}
		row := []string{p.Benchmark, strconv.Itoa(p.Servers), p.Variant}
		for _, col := range s.Columns {
			name, ratio := strings.CutSuffix(col, "/ref")
			v := metrics[name](p)
			switch {
			case !ratio:
				row = append(row, num(v))
			case metrics[name](ref) == 0:
				row = append(row, "-")
			default:
				row = append(row, f2(v/metrics[name](ref)))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// num formats a metric: integers plainly, fractions to three decimals
// below 100 and one above.
func num(v float64) string {
	switch {
	case v == float64(int64(v)):
		return strconv.FormatInt(int64(v), 10)
	case v >= 100:
		return f1(v)
	}
	return fmt.Sprintf("%.3f", v)
}

// Baseline is the JSON file a sweep writes (the committed BENCH_*.json).
type Baseline struct {
	Note   string  `json:"note"`
	Sweep  string  `json:"sweep"`
	Scale  float64 `json:"scale"`
	Cores  int     `json:"cores"`
	Points []Point `json:"points"`
}

// WriteBaseline writes a sweep's points to path as indented JSON.
func WriteBaseline(path, spec string, scale float64, cores int, points []Point) error {
	b := Baseline{
		Note:   fmt.Sprintf("regenerate with: hare-bench -sweep %s -scale %g -cores %d -baseline <path>", spec, scale, cores),
		Sweep:  spec,
		Scale:  scale,
		Cores:  cores,
		Points: points,
	}
	buf, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// SweepNames lists the sweeps LookupSweep knows.
var SweepNames = []string{"pipeline", "datapath", "elastic", "failover", "durability", "obs", "scale"}

// LookupSweep returns the sweeps behind one -sweep spec: a name from
// SweepNames, or "scale=RUNGS" (see ParseScaleRungs).
func LookupSweep(spec string) ([]Sweep, error) {
	name, arg, hasArg := strings.Cut(spec, "=")
	if hasArg && name != "scale" {
		return nil, fmt.Errorf("bench: sweep %q takes no argument", name)
	}
	onOff := []Variant{{Name: "on"}, {Name: "off"}}
	switch name {
	case "pipeline":
		onOff[1].Opts = func(o *HareOptions) { o.Techniques.RPCPipelining = false }
		return []Sweep{{
			Name:     name,
			Title:    "Pipelining sweep: async/batched RPC layer on vs off",
			Note:     "msgs/op counts client request messages; batched = sub-ops that traveled in batch envelopes; queue = virtual cycles requests waited at busy servers. DESIGN.md §7.",
			Cases:    each([]int{1, 2, 4, 8}, workload.SmallFile{}, workload.Creates{}, workload.Writes{}),
			Variants: onOff,
			Columns:  []string{"ms", "ms/ref", "msgs/op", "msgs/op/ref", "bytes/ref", "batched", "queue Mcyc/ref"},
		}}, nil
	case "datapath":
		onOff[1].Opts = func(o *HareOptions) { o.Techniques.DataPath = false }
		return []Sweep{{
			Name:     name,
			Title:    "Data-path sweep: dirty-line writeback + version-skip invalidation on vs off",
			Note:     "lines = 64B lines written back + invalidated; skipped = resident lines version-matched opens preserved; bytes = wire bytes. DESIGN.md §8.",
			Cases:    each([]int{1, 2, 4, 8}, workload.BigFile{}, workload.Writes{}),
			Variants: onOff,
			Columns:  []string{"ms", "ms/ref", "lines", "lines/ref", "skipped", "bytes/ref"},
		}}, nil
	case "elastic":
		var out []Sweep
		for _, pol := range []place.Policy{place.PolicyRing, place.PolicyModulo} {
			out = append(out, Sweep{
				Name:  name,
				Title: fmt.Sprintf("Elastic sweep (%s placement): scale-out under load, N -> N+1 servers mid-run", pol),
				Note:  "grow starts with N servers and adds one between phases A and B, so phase B runs while shards migrate; static had N+1 from boot. moved = directory entries handed off; imbalance = max/mean requests per server. DESIGN.md §9.",
				Cases: each([]int{2, 4}, &workload.Elastic{}),
				Variants: []Variant{
					{Name: pol.String() + " static", Opts: func(o *HareOptions) { o.Servers++; o.PlacePolicy = pol }},
					{Name: pol.String() + " grow", Opts: func(o *HareOptions) { o.MaxServers = o.Servers + 1; o.PlacePolicy = pol }},
				},
				Columns: []string{"phase A ms", "phase B ms", "phase B ms/ref", "moved", "imbalance"},
			})
		}
		return out, nil
	case "failover":
		replicated := func(mode repl.Mode) func(*HareOptions) {
			return func(o *HareOptions) {
				o.Durability.Enabled = true
				if mode != repl.Off {
					o.Replication.Mode = mode
				}
			}
		}
		return []Sweep{{
			Name:  name,
			Title: "Failover sweep: WAL-shipped replicas",
			Note:  "Creates then writes, no checkpoints, so a crashed server's whole history sits in its log. replay = server 0's recovery by log replay; promote = the promotion stall on an identical twin; lost = acked records the promotion dropped (0 under sync, at most one window under async). DESIGN.md §12.",
			Cases: []Case{{Workloads: []workload.Workload{workload.Creates{}, workload.Writes{}}}},
			Variants: []Variant{
				{Name: "off", Opts: replicated(repl.Off), After: Recover},
				{Name: "sync", Opts: replicated(repl.Sync), After: Recover},
				{Name: "sync promote", Opts: replicated(repl.Sync), After: Failover},
				{Name: "async", Opts: replicated(repl.Async), After: Recover},
				{Name: "async promote", Opts: replicated(repl.Async), After: Failover},
			},
			Columns: []string{"ms", "ms/ref", "repl msgs", "repl KB", "lag", "replay ms", "promote ms", "lost"},
		}}, nil
	case "durability":
		durable := func(o *HareOptions) { o.Durability.Enabled = true }
		overhead := []Variant{{Name: "wal off"}}
		for _, iv := range []sim.Cycles{0, 24_000, 240_000, 2_400_000} {
			label := "wal sync"
			if iv > 0 {
				label = fmt.Sprintf("wal %dus", iv/2400) // 2.4 GHz default clock
			}
			overhead = append(overhead, Variant{Name: label, Opts: func(o *HareOptions) {
				o.Durability = core.Durability{Enabled: true, GroupCommitInterval: iv}
			}})
		}
		return []Sweep{{
			Name:     name,
			Title:    "Durability overhead: group-commit sweep",
			Note:     "recs/flush is the amortization the group-commit interval buys. DESIGN.md §6.",
			Cases:    each(nil, workload.Creates{}, workload.Writes{}, workload.Directories{}),
			Variants: overhead,
			Columns:  []string{"ms", "ms/ref", "wal recs", "flushes", "recs/flush"},
		}, {
			Name:  name,
			Title: "Recovery time: crash every server after a populate run",
			Note:  "Identical work in both modes; the checkpoint folds creates and writes into a snapshot, so recovery replays only the directories records. Recovery time is virtual.",
			Cases: []Case{{Workloads: []workload.Workload{workload.Creates{}, workload.Writes{}, workload.Directories{}}}},
			Variants: []Variant{
				{Name: "log replay only", Opts: durable, After: RecoverAll},
				{Name: "checkpoint + tail", Opts: durable, After: Checkpoint | RecoverAll},
			},
			Columns: []string{"replayed", "log bytes", "ckpt bytes", "max recovery ms", "avg recovery ms"},
		}, {
			Name:     name,
			Title:    "Crash-injection workload: every server killed and recovered mid-run",
			Note:     "The workload fails the sweep unless, after every recovery, the namespace and file contents are byte-identical to a crash-free run.",
			Cases:    []Case{{Workloads: []workload.Workload{workload.CrashRecovery{}}}},
			Variants: []Variant{{Name: "wal sync", Opts: durable}},
			Columns:  []string{"ops", "wal recs", "ms"},
		}}, nil
	case "obs":
		tracing := func(sample int) func(*HareOptions) {
			return func(o *HareOptions) { o.Trace = trace.Config{Sample: sample} }
		}
		return []Sweep{{
			Name:  name,
			Title: "Tracing overhead: off vs 1-in-64 sampled vs full",
			Note:  "spans = ring occupancy; p50/p99 are root-span latencies (cycles) of the most frequent op. DESIGN.md §11.",
			Cases: each(nil, workload.SmallFile{}, workload.BigFile{}),
			Variants: []Variant{
				{Name: "off"},
				{Name: "1/64", Opts: tracing(64)},
				{Name: "full", Opts: tracing(1)},
			},
			Columns: []string{"ms", "ms/ref", "spans", "p50", "p99"},
		}}, nil
	case "scale":
		rungs := DefaultScaleRungs
		if hasArg {
			var err error
			if rungs, err = ParseScaleRungs(arg); err != nil {
				return nil, err
			}
		}
		var cases []Case
		for _, r := range rungs {
			perWorker := max(r.Files/r.Servers, 1)
			cases = append(cases, Case{
				Workloads: []workload.Workload{workload.ScaleSweep{FilesPerWorker: perWorker}},
				Servers:   r.Servers,
				Cores:     r.Servers,
				Files:     perWorker * r.Servers,
			})
		}
		return []Sweep{{
			Name:  name,
			Title: "Harness scaling sweep: wall-clock cost of big fleets and namespaces",
			Note:  "Measures the simulator, not Hare: one worker per server creates and stats its own subtree. wall = host time of the timed region; allocs/op = heap allocations per simulated op; rss is the process high-water mark. DESIGN.md §13.",
			Cases: cases,
			Variants: []Variant{
				{Name: "serialized"},
				{Name: "parallel", Opts: func(o *HareOptions) { o.Parallel = true }},
			},
			Columns: []string{"files", "ops", "ms", "wall s", "wall s/ref", "kops/wall-s", "allocs/op", "heap MiB", "rss MiB"},
		}}, nil
	}
	return nil, fmt.Errorf("bench: unknown sweep %q; valid: %s", name, strings.Join(SweepNames, ", "))
}

// each makes one case per workload and server count (nil servers: one per
// core).
func each(servers []int, ws ...workload.Workload) []Case {
	if servers == nil {
		servers = []int{0}
	}
	var out []Case
	for _, w := range ws {
		for _, n := range servers {
			out = append(out, Case{Workloads: []workload.Workload{w}, Servers: n})
		}
	}
	return out
}

// ScaleRung is one (server count, namespace size) point of the scale sweep.
type ScaleRung struct {
	// Servers is the fleet size; the deployment timeshares, so it is also
	// the core count and the worker count.
	Servers int
	// Files is the total number of files created across all workers.
	Files int
}

// DefaultScaleRungs is the committed sweep: the paper-scale 8-server rung as
// the wall-time yardstick, the acceptance rung (64 servers, one million
// files), and wider fleets at namespace sizes that keep the sweep minutes,
// not hours.
var DefaultScaleRungs = []ScaleRung{
	{Servers: 8, Files: 125_000},
	{Servers: 64, Files: 1_000_000},
	{Servers: 256, Files: 512_000},
	{Servers: 1024, Files: 262_144},
}

// hostCost sums the host cost of a run's timed regions: wall time, heap
// allocations, and the in-use heap after the last region. Each region starts
// from a collected heap. A nil *hostCost measures nothing.
type hostCost struct {
	wall          float64
	mallocs, heap uint64
	base          uint64
	start         time.Time
}

func (h *hostCost) begin() {
	if h == nil {
		return
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	h.base, h.start = mem.Mallocs, time.Now()
}

func (h *hostCost) end() {
	if h == nil {
		return
	}
	h.wall += time.Since(h.start).Seconds()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	h.mallocs += mem.Mallocs - h.base
	h.heap = mem.HeapInuse
}

// peakRSSBytes reads the process's resident-set high water from
// /proc/self/status (VmHWM); zero on platforms without it.
func peakRSSBytes() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// ParseScaleRungs parses a rung spec like "8:125000,64:1000000" (or bare
// server counts "8,64", which create one thousand files per worker).
func ParseScaleRungs(spec string) ([]ScaleRung, error) {
	var out []ScaleRung
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		srv, files, hasFiles := strings.Cut(part, ":")
		n, err := strconv.Atoi(srv)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bench: bad server count %q in scale rungs", srv)
		}
		r := ScaleRung{Servers: n, Files: 1000 * n}
		if hasFiles {
			if r.Files, err = strconv.Atoi(files); err != nil || r.Files <= 0 {
				return nil, fmt.Errorf("bench: bad file count %q in scale rungs", files)
			}
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: no scale rungs in %q", spec)
	}
	return out, nil
}
