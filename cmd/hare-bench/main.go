// Command hare-bench regenerates the tables and figures of the paper's
// evaluation section (§5) on the simulated machine, and runs the sweeps that
// measure each technique added past the paper.
//
// Usage:
//
//	hare-bench [-fig N] [-scale F] [-cores N] [-bench name]
//	hare-bench -sweep NAME [-scale F] [-cores N] [-bench name] [-baseline path]
//	hare-bench -trace out.json [-bench name] [-scale F] [-cores N]
//
// With no -fig flag every paper experiment is run in order. The -scale flag
// shrinks the workload iteration counts (1.0 reproduces the default sizes;
// smaller values finish faster), and -bench restricts the run to a single
// benchmark where applicable.
//
// -sweep runs one named A/B sweep instead of the paper's figures: pipeline,
// datapath, elastic, failover, durability, obs or scale. Every sweep prints
// one table per part and, with -baseline, writes its points in the one JSON
// schema of the committed BENCH_*.json files. The scale sweep takes its
// rungs as an argument, e.g. -sweep scale=64:64000 (default: the committed
// BENCH_scale.json rungs), and ignores -scale and -cores.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to regenerate (4-15); 0 means all")
		scale      = flag.Float64("scale", 0.25, "workload scale factor (1.0 = full size)")
		cores      = flag.Int("cores", 40, "size of the simulated machine")
		benchName  = flag.String("bench", "", "restrict to a single benchmark (e.g. \"creates\")")
		repoRoot   = flag.String("root", ".", "repository root (for the Figure 4 SLOC count)")
		sweep      = flag.String("sweep", "", "run this sweep instead of the paper's figures: "+strings.Join(bench.SweepNames, ", ")+"; scale takes rungs, e.g. scale=8:125000,64:1000000")
		traceOut   = flag.String("trace", "", "run one benchmark (-bench, default smallfile) with full tracing and export the span tree as Chrome trace_event JSON to this path (open in Perfetto)")
		baseline   = flag.String("baseline", "", "with -sweep: also write the sweep's points as JSON to this path (e.g. BENCH_pipeline.json)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path (see PROFILING.md)")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile at exit to this path (see PROFILING.md)")
	)
	flag.Parse()

	stopProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hare-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hare-bench:", err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memProfile != "" {
		cpuStop := stopProfiles
		stopProfiles = func() {
			cpuStop()
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hare-bench:", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "hare-bench:", err)
			}
			f.Close()
		}
	}
	defer stopProfiles()

	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "hare-bench:", err)
		os.Exit(1)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := conflict(set); err != nil {
		fail(err)
	}

	if *sweep != "" {
		sweeps, err := bench.LookupSweep(*sweep)
		if err != nil {
			fail(err)
		}
		var points []bench.Point
		for _, s := range sweeps {
			if *benchName != "" {
				s.Cases = onlyBench(s.Cases, *benchName)
			}
			ps, err := s.Run(*scale, *cores)
			if err != nil {
				fail(err)
			}
			if len(ps) > 0 {
				fmt.Println(s.Table(ps).Render())
			}
			points = append(points, ps...)
		}
		if len(points) == 0 {
			fail(fmt.Errorf("sweep %s measured nothing (no case fits -cores %d, or none runs -bench %q)", *sweep, *cores, *benchName))
		}
		if *baseline != "" {
			if err := bench.WriteBaseline(*baseline, *sweep, *scale, *cores, points); err != nil {
				fail(err)
			}
			fmt.Printf("baseline written to %s\n", *baseline)
		}
		return
	}

	if *traceOut != "" {
		var w workload.Workload = workload.SmallFile{}
		if *benchName != "" {
			var ok bool
			w, ok = workload.ByName(*benchName)
			if !ok {
				fail(fmt.Errorf("unknown benchmark %q; available: %v", *benchName, workload.Names()))
			}
		}
		opts := bench.DefaultHare(*cores)
		opts.Trace = trace.Config{Sample: 1}
		r, err := bench.RunWorkload(bench.HareFactory(opts), w, *scale)
		if err != nil {
			fail(err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := trace.WriteChrome(f, r.Spans); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Println(latencyTable(r).Render())
		fmt.Printf("%d spans written to %s (load in Perfetto: ui.perfetto.dev)\n", len(r.Spans), *traceOut)
		return
	}

	ws := workload.All()
	if *benchName != "" {
		w, ok := workload.ByName(*benchName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q; available: %v\n", *benchName, workload.Names())
			os.Exit(2)
		}
		for _, fw := range workload.FaultBenchmarks() {
			if fw.Name() == w.Name() {
				fail(fmt.Errorf("benchmark %q needs a fault-injecting backend; run it via -sweep durability", w.Name()))
			}
		}
		ws = []workload.Workload{w}
	}

	run := func(n int) bool { return *fig == 0 || *fig == n }

	if run(4) {
		t, err := bench.Figure4(*repoRoot, false)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(5) {
		t, err := bench.Figure5(*scale)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(6) {
		coreCounts := []int{1, 2, 5, 10, 20, *cores}
		_, t, err := bench.Figure6(*scale, coreCounts, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(7) {
		t, err := bench.Figure7(*scale, *cores, nil, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(8) {
		t, err := bench.Figure8(*scale, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(9) || run(10) || run(11) || run(12) || run(13) || run(14) {
		_, figs, summary, err := bench.AblateTechniques(*scale, *cores, ws)
		if err != nil {
			fail(err)
		}
		for i, ft := range figs {
			if run(10 + i) {
				fmt.Println(ft.Render())
			}
		}
		if run(9) {
			fmt.Println(summary.Render())
		}
	}
	if run(15) {
		t, err := bench.Figure15(*scale, *cores, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
}

// latencyTable renders the per-op tail-latency quantiles of a traced run.
func latencyTable(r bench.Result) *bench.Table {
	t := &bench.Table{
		Title:   fmt.Sprintf("%s on %s: per-op latency (virtual cycles)", r.Benchmark, r.Backend),
		Columns: []string{"op", "n", "p50", "p95", "p99", "p999", "max"},
		Note:    "power-of-two histogram percentiles: each estimate is within one bucket (2x) of the exact rank.",
	}
	ops := make([]string, 0, len(r.Lat))
	for op := range r.Lat {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		q := r.Lat[op]
		t.AddRow(op, fmt.Sprintf("%d", q.N), cyc(q.P50), cyc(q.P95), cyc(q.P99), cyc(q.P999), cyc(q.Max))
	}
	return t
}

func cyc(v uint64) string { return fmt.Sprintf("%d", v) }

// conflict rejects flag combinations that would silently drop one mode:
// -sweep, -trace and -fig each select what runs.
func conflict(set map[string]bool) error {
	modes := 0
	for _, f := range []string{"sweep", "trace", "fig"} {
		if set[f] {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-sweep, -trace and -fig each select what runs; pass only one of them")
	}
	if set["baseline"] && !set["sweep"] {
		return fmt.Errorf("-baseline writes a sweep's points and needs -sweep")
	}
	return nil
}

// onlyBench keeps the cases that run the named benchmark.
func onlyBench(cases []bench.Case, name string) []bench.Case {
	var out []bench.Case
	for _, c := range cases {
		for _, w := range c.Workloads {
			if w.Name() == name {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
