package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	hare "repro"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stations are the virtual-time stations of the queueing model that the
// traced run attributes self time to.
var stations = []string{"client", "net", "queue", "service", "sub", "wal", "writeback", "repl"}

// stationOf maps span kinds to stations; failover spans belong to none.
var stationOf = map[trace.Kind]string{
	trace.KindRoot: "client", trace.KindRPC: "client", trace.KindEpochRefresh: "client",
	trace.KindNetReq: "net", trace.KindQueue: "queue", trace.KindService: "service",
	trace.KindSub: "sub", trace.KindWAL: "wal", trace.KindWriteback: "writeback", trace.KindRepl: "repl",
}

// hostPackages are the packages whose share of host CPU time is reported.
var hostPackages = []string{"client", "msg", "proto", "server", "ncc", "sim", "table", "wal", "repl", "runtime"}

// chromeTraces caps how many client calls' span trees the Chrome trace holds.
const chromeTraces = 2000

// tracedReplay rebuilds the deployment with every call traced and a CPU
// profile running, replays the first rounds of the untraced run base (the
// same seed gives the same stream), and derives per-station virtual self
// times, per-package host shares and the tracing overhead against base.
func tracedReplay(m metrics, name string, seed uint64, base *timed, budget time.Duration, out string) error {
	wl, err := newWorkload(name, seed, false)
	if err != nil {
		return err
	}
	sp := wl.spec()
	rec := newRecorder(wl.writePool(), sp.workers)
	d, err := deploy(sp, true)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := d.runPhases(wl.preload(), rec, "preload"); err != nil {
		return err
	}
	tr := d.sys.Tracer()
	tr.Reset()

	profPath := filepath.Join(out, name+"-cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	if err := pprof.StartCPUProfile(pf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	t, err := runRounds(d, wl, rec, budget, len(base.rounds))
	if err != nil {
		pprof.StopCPUProfile()
		return err
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return fmt.Errorf("write cpu profile: %w", err)
	}
	if _, failed := rec.totals(); failed > 0 {
		return fmt.Errorf("traced replay: %d calls differ; first: %s", failed, rec.firstFailure())
	}

	k := len(t.rounds)
	_, baseWall, baseVirt := base.totals(k)
	_, trWall, trVirt := t.totals(k)
	m.set("trace.virt_overhead_share", trVirt/baseVirt-1, "share")
	m.set("trace.host_overhead_share", trWall.Seconds()/baseWall.Seconds()-1, "share")

	spans := tr.Spans()
	fmt.Printf("traced replay: %d of %d rounds, %d spans kept, %d dropped\n", k, len(base.rounds), len(spans), tr.Dropped())
	selfTimes(m, spans, clockHz)
	if err := hostShares(m, profPath); err != nil {
		return err
	}
	return writeChrome(filepath.Join(out, name+"-trace.json"), spans)
}

// selfTimes sets <station>.virt_self_us: each station's virtual self time
// (a span's duration minus the part its child spans cover) per traced call.
func selfTimes(m metrics, spans []trace.Span, hz float64) {
	children := make(map[uint64][]int)
	calls := 0
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		} else if s.Kind == trace.KindRoot {
			calls++
		}
	}
	self := make(map[string]float64)
	var iv [][2]sim.Cycles
	for _, s := range spans {
		st, ok := stationOf[s.Kind]
		if !ok || s.End <= s.Start {
			continue
		}
		iv = iv[:0]
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]sim.Cycles{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end sim.Cycles
		for _, x := range iv {
			lo := max(x[0], end)
			if x[1] > lo {
				covered += x[1] - lo
				end = x[1]
			}
		}
		self[st] += float64(s.End - s.Start - covered)
	}
	for _, st := range stations {
		m.set(st+".virt_self_us", ratio(self[st]/hz*1e6, float64(calls)), "us/op")
	}
}

// hostShares sets <pkg>.host_share: each package's share of the profile's
// CPU samples by self (flat) time, summarized with `go tool pprof`.
func hostShares(m metrics, profPath string) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profPath)
	cmd.Stderr = os.Stderr
	outp, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	flat := make(map[string]float64)
	var total float64
	header := false
	for _, line := range strings.Split(string(outp), "\n") {
		f := strings.Fields(line)
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		dur, err := time.ParseDuration(f[0])
		if err != nil {
			return fmt.Errorf("go tool pprof: bad flat time %q", f[0])
		}
		v := dur.Seconds()
		total += v
		flat[pkgOf(strings.Join(f[5:], " "))] += v
	}
	if !header || total == 0 {
		return fmt.Errorf("go tool pprof: no samples in %s", profPath)
	}
	for _, p := range hostPackages {
		m.set(p+".host_share", flat[p]/total, "share")
	}
	return nil
}

// pkgOf names the package of a profiled function: the last element of a
// repro/internal path, "runtime" for the runtime and its internal packages,
// and the full import path otherwise.
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		fn = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		return strings.TrimPrefix(fn, "repro/internal/")
	case fn == "runtime" || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return fn
}

// writeChrome exports the span trees of the first traced calls as Chrome
// trace_event JSON.
func writeChrome(path string, spans []trace.Span) error {
	keep := make(map[uint64]bool)
	for _, s := range spans {
		if s.Kind == trace.KindRoot && len(keep) < chromeTraces {
			keep[s.Trace] = true
		}
	}
	var sel []trace.Span
	for _, s := range spans {
		if keep[s.Trace] {
			sel = append(sel, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := hare.WriteChromeTrace(f, sel); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return f.Close()
}
