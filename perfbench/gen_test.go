package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// stream generates a workload's preload, first rounds and verify pass.
func stream(t *testing.T, name string, seed uint64, rounds int) []phase {
	t.Helper()
	wl, err := newWorkload(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	out := wl.preload()
	for r := 0; r < rounds; r++ {
		out = append(out, wl.round()...)
	}
	return append(out, wl.verify()...)
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b := stream(t, name, 7, 3), stream(t, name, 7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if reflect.DeepEqual(a, stream(t, name, 8, 3)) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

// TestSecondSeedRunsClean runs each workload, shrunk, on a live deployment
// with a seed other than the default and requires every call and the final
// namespace check to match the generator's expectations.
func TestSecondSeedRunsClean(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			sp := wl.spec()
			rec := newRecorder(wl.writePool(), sp.workers)
			d, err := deploy(sp, false)
			if err != nil {
				t.Fatal(err)
			}
			defer d.stop()
			if err := d.runPhases(wl.preload(), rec, "preload"); err != nil {
				t.Fatal(err)
			}
			tm, err := runRounds(d, wl, rec, time.Hour, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.runPhases(wl.verify(), rec, "verify"); err != nil {
				t.Fatal(err)
			}
			calls, failed := rec.totals()
			if failed != 0 {
				t.Fatalf("seed 2: %d of %d calls differ; first: %s", failed, calls, rec.firstFailure())
			}
			if got := len(rec.takeSpans()); got != sum(tm.calls) {
				t.Fatalf("recorded %d spans for %d timed calls", got, sum(tm.calls))
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	// A root [0,100) with an rpc [10,90) whose net [10,20) and service
	// [30,60) children leave 40 cycles of rpc self time.
	spans := []trace.Span{
		{Trace: 1, ID: 1, Kind: trace.KindRoot, Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Kind: trace.KindRPC, Start: 10, End: 90},
		{Trace: 1, ID: 3, Parent: 2, Kind: trace.KindNetReq, Start: 10, End: 20},
		{Trace: 1, ID: 4, Parent: 2, Kind: trace.KindService, Start: 30, End: 60},
	}
	m := metrics{}
	selfTimes(m, spans, 1e6) // 1 cycle = 1 µs
	want := map[string]float64{"client": 20 + 40, "net": 10, "service": 30, "queue": 0}
	for st, v := range want {
		if got := m[st+".virt_self_us"].Value; got != v {
			t.Errorf("%s self time = %v, want %v", st, got, v)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Gate).SafeAt":                                "sim",
		"repro/internal/table.(*Map[go.shape.uint64,go.shape.uint64]).Get": "table",
		"repro/internal/server.(*Server).run.func1":                        "server",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sync/atomic.(*Int64).Add":                     "sync/atomic",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{5}, 0.99, 5},
		// Mid-ranks: 1 at 1/8, 2 at 5/8 (tied three times), so the
		// median lies 3/8 of the way from 1 to 2.
		{[]float64{1, 2, 2, 2}, 0.5, 1 + 0.375/0.5},
		{[]float64{1, 2, 2, 2}, 0.99, 2},
	} {
		if got := quantile(c.v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.v, c.q, got, c.want)
		}
	}
}
