package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/repl"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sweepCheck is one sweep's acceptance test: the registered sweep shrunk to
// test size, the number of points it must yield, and the properties those
// points must hold.
type sweepCheck struct {
	spec   string
	scale  float64
	cores  int
	shrink func(s *Sweep) // nil runs the registered sweep as is
	points int
	check  func(t *testing.T, ps []Point)
}

// byVariant indexes points by variant name (each check's sweep has one
// case per variant, or the check looks at one case).
func byVariant(ps []Point) map[string]Point {
	m := map[string]Point{}
	for _, p := range ps {
		m[p.Variant] = p
	}
	return m
}

// pairs returns each case's (reference, other) points of a two-variant
// sweep.
func pairs(ps []Point) [][2]Point {
	var out [][2]Point
	for i := 0; i+1 < len(ps); i += 2 {
		out = append(out, [2]Point{ps[i], ps[i+1]})
	}
	return out
}

var sweepChecks = map[string]sweepCheck{
	// The async RPC pipeline: on the small-file create/unlink workload at
	// >= 4 servers, pipelining must cut client request messages by at least
	// 20% and strictly lower the virtual runtime.
	"pipeline": {
		spec: "pipeline", scale: testScale, cores: 8, points: 4,
		shrink: func(s *Sweep) { s.Cases = each([]int{4, 8}, workload.SmallFile{PerWorker: 25}) },
		check: func(t *testing.T, ps []Point) {
			for _, pr := range pairs(ps) {
				on, off := pr[0], pr[1]
				if cut := 1 - float64(on.Econ.ClientRPCs)/float64(off.Econ.ClientRPCs); cut < 0.20 {
					t.Errorf("%s@%d servers: message reduction %.0f%%, want >= 20%%", on.Benchmark, on.Servers, cut*100)
				}
				if on.Seconds >= off.Seconds {
					t.Errorf("%s@%d servers: pipelining on (%.4fs) not faster than off (%.4fs)",
						on.Benchmark, on.Servers, on.Seconds, off.Seconds)
				}
				if on.Econ.BatchedOps == 0 {
					t.Errorf("%s@%d servers: no sub-ops traveled in batches", on.Benchmark, on.Servers)
				}
			}
		},
	},
	// The zero-waste data path: on bigfile it must move strictly fewer data
	// lines and finish faster than off-mode at every server count, with
	// version-matched opens actually firing.
	"datapath": {
		spec: "datapath", scale: 0.05, cores: 4, points: 6,
		shrink: func(s *Sweep) { s.Cases = each([]int{1, 2, 4}, workload.BigFile{FileKiB: 64, Rounds: 2}) },
		check: func(t *testing.T, ps []Point) {
			for _, pr := range pairs(ps) {
				on, off := pr[0], pr[1]
				lines := func(p Point) uint64 { return p.Econ.WbLines + p.Econ.InvLines }
				if lines(on) >= lines(off) {
					t.Errorf("servers=%d: on-mode moved %d lines, off-mode %d — not strictly fewer",
						on.Servers, lines(on), lines(off))
				}
				if on.Seconds >= off.Seconds {
					t.Errorf("servers=%d: on-mode %.4fs not faster than off-mode %.4fs", on.Servers, on.Seconds, off.Seconds)
				}
				if on.Econ.SkipLines == 0 {
					t.Errorf("servers=%d: no lines preserved by version-matched opens", on.Servers)
				}
			}
		},
	},
	// Elastic placement: migration moves a non-zero but bounded entry set,
	// the post-scale-out phase stays within 50% of the equally-sized static
	// fleet even at smoke scale, and the ring moves strictly less than
	// modulo. MigEntries and Imbalance are schedule-independent; the phase
	// ratio compares the virtual times of two runs.
	"elastic": {
		spec: "elastic", scale: 0.1, cores: 4, points: 4,
		shrink: func(s *Sweep) { s.Cases = each([]int{2}, &workload.Elastic{}) },
		check: func(t *testing.T, ps []Point) {
			m := byVariant(ps)
			moved := map[place.Policy]uint64{}
			for _, pol := range []place.Policy{place.PolicyRing, place.PolicyModulo} {
				static, grow := m[pol.String()+" static"], m[pol.String()+" grow"]
				if grow.Econ.MigEntries == 0 {
					t.Fatalf("%s: migration moved nothing; the scale-out was a no-op", pol)
				}
				if len(grow.PhaseSeconds) != 2 || grow.PhaseSeconds[1] <= 0 || len(static.PhaseSeconds) != 2 || static.PhaseSeconds[1] <= 0 {
					t.Fatalf("%s: missing phase timings: grow=%v static=%v", pol, grow.PhaseSeconds, static.PhaseSeconds)
				}
				if r := grow.PhaseSeconds[1] / static.PhaseSeconds[1]; r > 1.5 {
					t.Fatalf("%s: post-scale-out phase %.2fx the static fleet; elasticity is pathologically slow", pol, r)
				}
				if grow.Imbalance < 1.0 {
					t.Fatalf("%s: imbalance %.2f below 1.0 (max/mean cannot be)", pol, grow.Imbalance)
				}
				moved[pol] = grow.Econ.MigEntries
			}
			if moved[place.PolicyRing] >= moved[place.PolicyModulo] {
				t.Fatalf("ring moved %d entries, modulo %d; the ring should move strictly less",
					moved[place.PolicyRing], moved[place.PolicyModulo])
			}
		},
	},
	// Replication and failover: the shipper runs, the sync follower shows
	// zero lag after a quiescent run, promotion loses no acked records under
	// sync (at most one window under async), and the promotion stall beats
	// the WAL replay it replaces. Replay and promotion run on identical twin
	// deployments; lag and lost records are schedule-independent.
	"failover": {
		spec: "failover", scale: 0.05, cores: 4, points: 5,
		check: func(t *testing.T, ps []Point) {
			m := byVariant(ps)
			off := m["off"]
			if off.ReplMsgs != 0 || off.ReplBytes != 0 {
				t.Fatalf("replication off still shipped: %d msgs, %d bytes", off.ReplMsgs, off.ReplBytes)
			}
			if metrics["replay ms"](off) <= 0 {
				t.Fatal("replay control measured zero recovery time")
			}
			for _, mode := range []repl.Mode{repl.Sync, repl.Async} {
				replay, promote := m[mode.String()], m[mode.String()+" promote"]
				if replay.ReplMsgs == 0 || replay.ReplBytes == 0 {
					t.Fatalf("%s: no replication traffic; the shipper never ran", mode)
				}
				if promote.PromoteMs <= 0 {
					t.Fatalf("%s: promotion measured zero stall", mode)
				}
				if r := metrics["replay ms"](replay); promote.PromoteMs >= r {
					t.Fatalf("%s: promotion stalled %.4f ms vs %.4f ms replay; the replica buys nothing", mode, promote.PromoteMs, r)
				}
				if replay.Ops == 0 || replay.Seconds <= 0 || off.Seconds <= 0 {
					t.Fatalf("%s: missing throughput: %d ops in %.4fs (off: %.4fs)", mode, replay.Ops, replay.Seconds, off.Seconds)
				}
			}
			if lag := m["sync"].ReplLag; lag != 0 {
				t.Fatalf("sync follower lagged %d records after a quiescent run", lag)
			}
			if lost := m["sync promote"].LostRecords; lost != 0 {
				t.Fatalf("sync promotion lost %d acked records", lost)
			}
			if lost, w := m["async promote"].LostRecords, uint64(repl.DefaultWindow); lost > w {
				t.Fatalf("async promotion lost %d acked records, window is %d", lost, w)
			}
		},
	},
	// Tracing overhead: every benchmark reports the three modes, the traced
	// modes carry latency quantiles and spans, and the untraced mode neither.
	"obs": {
		spec: "obs", scale: 0.05, cores: 2, points: 3,
		shrink: func(s *Sweep) { s.Cases = each(nil, workload.Creates{PerWorker: 4}) },
		check: func(t *testing.T, ps []Point) {
			for i, want := range []string{"off", "1/64", "full"} {
				p := ps[i]
				if p.Variant != want {
					t.Fatalf("point %d: got %q, want %q", i, p.Variant, want)
				}
				if p.Seconds <= 0 || p.Ops == 0 {
					t.Fatalf("mode %q: ran %d ops in %.4fs", p.Variant, p.Ops, p.Seconds)
				}
				if want == "off" {
					if p.Spans != 0 || len(p.Lat) != 0 {
						t.Fatalf("off mode carried spans=%d lat=%d", p.Spans, len(p.Lat))
					}
					continue
				}
				if p.Spans == 0 || len(p.Lat) == 0 {
					t.Fatalf("mode %q: %d spans, %d latency ops", p.Variant, p.Spans, len(p.Lat))
				}
				for op, q := range p.Lat {
					if q.N == 0 {
						t.Fatalf("mode %q op %q: empty quantiles", p.Variant, op)
					}
				}
			}
		},
	},
}

// durabilityPart runs one of the durability sweep's three parts.
func durabilityPart(title string, points int, check func(t *testing.T, ps []Point)) sweepCheck {
	return sweepCheck{
		spec: "durability", scale: testScale, cores: 2, points: points, check: check,
		shrink: func(s *Sweep) {
			if !strings.HasPrefix(s.Title, title) {
				s.Cases = nil
			}
		},
	}
}

func runSweepCheck(t *testing.T, c sweepCheck) {
	t.Helper()
	sweeps, err := LookupSweep(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	var all []Point
	for _, s := range sweeps {
		if c.shrink != nil {
			c.shrink(&s)
		}
		ps, err := s.Run(c.scale, c.cores)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) > 0 && len(s.Table(ps).Rows) != len(ps) {
			t.Fatalf("%s: table rows do not match %d points", s.Title, len(ps))
		}
		all = append(all, ps...)
	}
	if len(all) != c.points {
		t.Fatalf("sweep %s produced %d points, want %d", c.spec, len(all), c.points)
	}
	c.check(t, all)
}

func TestPipelineFigureMeetsAcceptance(t *testing.T) { runSweepCheck(t, sweepChecks["pipeline"]) }
func TestDatapathSweepAcceptance(t *testing.T)       { runSweepCheck(t, sweepChecks["datapath"]) }
func TestElasticFigureSmoke(t *testing.T)            { runSweepCheck(t, sweepChecks["elastic"]) }
func TestFailoverFigureSmoke(t *testing.T)           { runSweepCheck(t, sweepChecks["failover"]) }
func TestObsFigureModes(t *testing.T)                { runSweepCheck(t, sweepChecks["obs"]) }

func TestDurabilityOverheadTable(t *testing.T) {
	c := durabilityPart("Durability overhead", 9, func(t *testing.T, ps []Point) {
		for _, p := range ps {
			if (p.Variant == "wal off") != (p.WALRecords == 0) {
				t.Fatalf("%s %s: %d WAL records", p.Benchmark, p.Variant, p.WALRecords)
			}
		}
	})
	// Three workloads x (off + two intervals).
	c.cores = 4
	shrink := c.shrink
	c.shrink = func(s *Sweep) {
		shrink(s)
		var vs []Variant
		for _, v := range s.Variants {
			if v.Name == "wal off" || v.Name == "wal sync" || v.Name == "wal 100us" {
				vs = append(vs, v)
			}
		}
		s.Variants = vs
	}
	runSweepCheck(t, c)
}

func TestRecoveryTimeTable(t *testing.T) {
	runSweepCheck(t, durabilityPart("Recovery time", 2, func(t *testing.T, ps []Point) {
		m := byVariant(ps)
		log, ckpt := m["log replay only"], m["checkpoint + tail"]
		if len(log.Recovery) != 2 || len(ckpt.Recovery) != 2 {
			t.Fatalf("recovered %d and %d servers, want 2 each", len(log.Recovery), len(ckpt.Recovery))
		}
		if recoveryTotal(log).CkptBytes != 0 || recoveryTotal(ckpt).CkptBytes == 0 {
			t.Fatalf("checkpoint bytes: log-only %d, checkpointed %d", recoveryTotal(log).CkptBytes, recoveryTotal(ckpt).CkptBytes)
		}
		if recoveryTotal(ckpt).Records >= recoveryTotal(log).Records {
			t.Fatalf("checkpoint replayed %d records, log-only %d", recoveryTotal(ckpt).Records, recoveryTotal(log).Records)
		}
	}))
}

func TestCrashWorkloadCheckTable(t *testing.T) {
	runSweepCheck(t, durabilityPart("Crash-injection", 1, func(t *testing.T, ps []Point) {
		if ps[0].Ops <= 0 || ps[0].WALRecords == 0 {
			t.Fatalf("crash workload did not run: %+v", ps[0])
		}
	}))
}

func TestLookupSweep(t *testing.T) {
	for _, name := range SweepNames {
		sweeps, err := LookupSweep(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sweeps {
			if s.Name != name || len(s.Cases) == 0 || len(s.Variants) == 0 {
				t.Fatalf("%s: malformed sweep %+v", name, s)
			}
			for _, col := range s.Columns {
				if metrics[strings.TrimSuffix(col, "/ref")] == nil {
					t.Fatalf("%s: unknown column %q", name, col)
				}
			}
		}
	}
	sweeps, err := LookupSweep("scale=64:64000,8")
	if err != nil {
		t.Fatal(err)
	}
	cases := sweeps[0].Cases
	if len(cases) != 2 || cases[0].Servers != 64 || cases[0].Cores != 64 || cases[0].Files != 64000 || cases[1].Files != 8000 {
		t.Fatalf("scale rungs parsed as %+v", cases)
	}
	for _, bad := range []string{"nosuch", "pipeline=4", "scale=", "scale=0:10", "scale=8:x"} {
		_, err := LookupSweep(bad)
		if err == nil {
			t.Fatalf("LookupSweep(%q) succeeded", bad)
		}
		if bad == "nosuch" && !strings.Contains(err.Error(), strings.Join(SweepNames, ", ")) {
			t.Fatalf("unknown-sweep error does not list the sweeps: %v", err)
		}
	}
}

// roundTripBaseline writes points through the one baseline writer and
// checks that they read back unchanged.
func roundTripBaseline(t *testing.T, sweep string, scale float64, cores int, points []Point) Baseline {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, sweep, scale, cores, points); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Baseline
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sweep != sweep || back.Cores != cores || back.Scale != scale || !reflect.DeepEqual(back.Points, points) {
		t.Fatalf("baseline round trip mismatch: %+v", back)
	}
	return back
}

// checkRefRow renders the points' table and checks the second variant's row,
// whose "/ref" columns divide by the first.
func checkRefRow(t *testing.T, ps []Point, columns, want []string) {
	t.Helper()
	s := Sweep{Variants: []Variant{{Name: ps[0].Variant}, {Name: ps[1].Variant}}, Columns: columns}
	if row := s.Table(ps).Rows[1]; !reflect.DeepEqual(row, want) {
		t.Fatalf("%s row = %q, want %q", ps[1].Variant, row, want)
	}
}

func TestPipelineBaselineRoundTrip(t *testing.T) {
	back := roundTripBaseline(t, "pipeline", 0.1, 8, []Point{
		{Benchmark: "smallfile", Servers: 4, Variant: "on", Ops: 100, Seconds: 0.5,
			Econ: stats.Economy{ClientRPCs: 75}},
		{Benchmark: "smallfile", Servers: 4, Variant: "off", Ops: 100, Seconds: 0.7,
			Econ: stats.Economy{ClientRPCs: 100}, Recovery: []Recovery{{Records: 3, Ms: 0.25}}},
	})
	checkRefRow(t, back.Points, []string{"ms/ref", "msgs/op/ref", "replay ms"},
		[]string{"smallfile", "4", "off", "1.40", "1.33", "0.250"})
}

func TestDatapathBaselineWriter(t *testing.T) {
	back := roundTripBaseline(t, "datapath", 0.05, 4, []Point{
		{Benchmark: "bigfile", Servers: 2, Variant: "on", Ops: 10, Seconds: 0.1,
			Econ: stats.Economy{WbLines: 5}},
		{Benchmark: "bigfile", Servers: 2, Variant: "off", Ops: 10, Seconds: 0.2,
			Econ: stats.Economy{WbLines: 50}},
	})
	checkRefRow(t, back.Points, []string{"ms/ref", "lines/ref"},
		[]string{"bigfile", "2", "off", "2.00", "10.00"})
}

func TestResultCarriesMessageEconomy(t *testing.T) {
	r, err := RunWorkload(HareFactory(DefaultHare(2)), workload.Creates{PerWorker: 10}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if r.Econ == nil {
		t.Fatal("hare backend result has no economy counters")
	}
	if r.Econ.Msgs == 0 || r.Econ.Bytes == 0 || r.Econ.ClientRPCs == 0 {
		t.Fatalf("degenerate economy counters: %+v", *r.Econ)
	}
	if r.Econ.ClientRPCs >= r.Econ.Msgs {
		t.Fatal("request messages should be a strict subset of all messages")
	}
	base, err := RunWorkload(RamfsFactory(2), workload.Creates{PerWorker: 10}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if base.Econ != nil {
		t.Fatal("ramfs baseline has no message layer; Econ must be nil")
	}
}

func TestHareFactoryExposesFaultsWithDurability(t *testing.T) {
	opts := DefaultHare(2)
	opts.Durability = core.Durability{Enabled: true}
	b, err := HareFactory(opts)(workload.CrashRecovery{}.Placement())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Faults == nil {
		t.Fatal("durable backend exposes no fault injector")
	}
	if !strings.Contains(b.Name, "+wal") {
		t.Fatalf("durable backend name %q not marked", b.Name)
	}
	r, err := RunWorkload(HareFactory(opts), workload.CrashRecovery{FilesPerRound: 3}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops <= 0 {
		t.Fatalf("degenerate crash workload result: %+v", r)
	}

	plain, err := HareFactory(DefaultHare(2))(workload.Creates{}.Placement())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Faults != nil {
		t.Fatal("non-durable backend should not expose fault injection")
	}
}

// TestTracerHooksZeroAlloc pins the zero-overhead-when-off contract at the
// allocation level: the hot-path hooks on a nil (disabled) Tracer must not
// allocate, and neither must steady-state Record on an enabled one (the ring
// and histograms are reused, not grown).
func TestTracerHooksZeroAlloc(t *testing.T) {
	var nilTracer *trace.Tracer
	span := trace.Span{Kind: trace.KindRoot, Name: "open", Start: 10, End: 90}

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if nilTracer.Sample() != 0 {
				b.Fatal("nil tracer reported sampling")
			}
			nilTracer.Record(span)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("disabled tracer hooks allocate %d per op", a)
	}

	tr := trace.New(trace.Config{Sample: 1, Ring: 64})
	tr.Record(span) // warm the op histogram and ring
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Record(span)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state Record allocates %d per op", a)
	}
}
