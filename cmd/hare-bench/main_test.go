package main

import (
	"testing"

	"repro/internal/bench"
)

// TestConflict pins that no mode flag is silently dropped: -sweep, -trace
// and -fig exclude each other, and -baseline needs a sweep to write.
func TestConflict(t *testing.T) {
	cases := []struct {
		set []string
		ok  bool
	}{
		{nil, true},
		{[]string{"sweep", "baseline", "bench", "scale", "cores"}, true},
		{[]string{"trace", "bench"}, true},
		{[]string{"fig", "bench"}, true},
		{[]string{"sweep", "fig"}, false},
		{[]string{"sweep", "trace"}, false},
		{[]string{"trace", "fig"}, false},
		{[]string{"baseline"}, false},
		{[]string{"fig", "baseline"}, false},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range c.set {
			set[f] = true
		}
		if err := conflict(set); (err == nil) != c.ok {
			t.Errorf("conflict(%v) = %v, want ok=%v", c.set, err, c.ok)
		}
	}
}

func TestOnlyBench(t *testing.T) {
	sweeps, err := bench.LookupSweep("datapath")
	if err != nil {
		t.Fatal(err)
	}
	got := onlyBench(sweeps[0].Cases, "bigfile")
	if len(got) != 4 || got[0].Workloads[0].Name() != "bigfile" {
		t.Fatalf("onlyBench kept %d cases", len(got))
	}
	if len(onlyBench(sweeps[0].Cases, "renames")) != 0 {
		t.Fatal("onlyBench kept cases that do not run the benchmark")
	}
}
