package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

const testScale = 0.05

func TestRunWorkloadOnAllBackends(t *testing.T) {
	w := workload.Creates{PerWorker: 20}
	factories := map[string]Factory{
		"hare":  HareFactory(DefaultHare(4)),
		"ramfs": RamfsFactory(4),
		"unfs":  UnfsFactory(1),
	}
	for name, f := range factories {
		r, err := RunWorkload(f, w, testScale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Throughput <= 0 || r.Seconds <= 0 || r.Ops <= 0 {
			t.Fatalf("%s: degenerate result %+v", name, r)
		}
		if r.OpTotal == 0 {
			t.Fatalf("%s: no ops counted", name)
		}
	}
}

func TestHareScalesOnCreates(t *testing.T) {
	// The headline claim: creates on Hare should get meaningfully faster
	// with more cores and servers (directory distribution spreads the
	// entries across servers).
	w := workload.Creates{PerWorker: 60}
	r1, err := RunWorkload(HareFactory(DefaultHare(1)), w, testScale)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunWorkload(HareFactory(DefaultHare(8)), w, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if sp := Speedup(r1, r8); sp < 2.0 {
		t.Fatalf("creates speedup at 8 cores = %.2f, want >= 2", sp)
	}
}

func TestUnfsSlowerThanHareSequential(t *testing.T) {
	// Figure 8's key relationship: Hare beats the user-space NFS baseline
	// on metadata-heavy microbenchmarks, while Linux ramfs beats Hare.
	w := workload.Renames{PerWorker: 60}
	hare, err := RunWorkload(HareFactory(DefaultHare(1)), w, testScale)
	if err != nil {
		t.Fatal(err)
	}
	nfs, err := RunWorkload(UnfsFactory(1), w, testScale)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := RunWorkload(RamfsFactory(1), w, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if nfs.Throughput >= hare.Throughput {
		t.Fatalf("unfs (%.0f ops/s) should be slower than hare (%.0f ops/s)", nfs.Throughput, hare.Throughput)
	}
	if ram.Throughput <= hare.Throughput {
		t.Fatalf("ramfs (%.0f ops/s) should be faster than hare (%.0f ops/s)", ram.Throughput, hare.Throughput)
	}
}

func TestDirectoryDistributionHelpsCreates(t *testing.T) {
	w := workload.Creates{PerWorker: 40}
	on, err := RunWorkload(HareFactory(DefaultHare(8)), w, testScale)
	if err != nil {
		t.Fatal(err)
	}
	noDist := DefaultHare(8)
	noDist.Techniques.DirectoryDistribution = false
	off, err := RunWorkload(HareFactory(noDist), w, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if Speedup(off, on) < 1.2 {
		t.Fatalf("directory distribution speedup on creates = %.2f, want > 1.2", Speedup(off, on))
	}
}

func TestFigure5SmallSuite(t *testing.T) {
	tbl, err := Figure5(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(workload.All()) {
		t.Fatalf("figure 5 has %d rows", len(tbl.Rows))
	}
	out := tbl.Render()
	if !strings.Contains(out, "creates") || !strings.Contains(out, "build linux") {
		t.Fatal("rendered table missing benchmarks")
	}
}

func TestFigure6SmallSuite(t *testing.T) {
	ws := []workload.Workload{workload.Creates{PerWorker: 30}, &workload.PFind{Sparse: true}}
	data, tbl, err := Figure6(testScale, []int{1, 4}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("figure 6 rows = %d", len(tbl.Rows))
	}
	sp := data.Speedup["creates"]
	if len(sp) != 2 || sp[0] < 0.99 || sp[0] > 1.01 {
		t.Fatalf("1-core speedup should be 1.0, got %v", sp)
	}
}

func TestFigure7And8Small(t *testing.T) {
	ws := []workload.Workload{workload.Renames{PerWorker: 30}}
	if _, err := Figure7(testScale, 8, []int{2, 4}, ws); err != nil {
		t.Fatal(err)
	}
	tbl, err := Figure8(testScale, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatal("figure 8 should have one row per benchmark")
	}
}

func TestAblateTechniquesSmall(t *testing.T) {
	ws := []workload.Workload{workload.Creates{PerWorker: 30}}
	data, figs, summary, err := AblateTechniques(testScale, 8, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 5 {
		t.Fatalf("expected 5 technique figures, got %d", len(figs))
	}
	if len(summary.Rows) != 5 {
		t.Fatalf("summary should have 5 rows, got %d", len(summary.Rows))
	}
	if len(data.Ratio) != 5 {
		t.Fatal("missing technique ratios")
	}
}

func TestFigure15Small(t *testing.T) {
	ws := []workload.Workload{workload.Mailbench{PerWorker: 20}}
	tbl, err := Figure15(testScale, 4, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatal("figure 15 should have one row")
	}
}

func TestFigure4SLOC(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Figure4(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 5 {
		t.Fatalf("SLOC table has %d rows", len(tbl.Rows))
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "Total" {
		t.Fatal("last row should be the total")
	}
}

// TestSLOCComponentsCoverRepo pins that hare-sloc counts every package:
// each directory under internal/ and cmd/ holding non-test Go files falls in
// exactly one component.
func TestSLOCComponentsCoverRepo(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.Walk(filepath.Join(root, top), func(path string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !fi.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				rel, err := filepath.Rel(root, filepath.Dir(path))
				dirs[filepath.ToSlash(rel)] = true
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("found no Go packages")
	}
	for dir := range dirs {
		var owners []string
		for _, c := range SLOCComponents() {
			for _, p := range c.Paths {
				if dir == p || strings.HasPrefix(dir, p+"/") {
					owners = append(owners, c.Name)
				}
			}
		}
		if len(owners) != 1 {
			t.Errorf("%s is counted by %d components %v, want exactly 1", dir, len(owners), owners)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "bbbb"}, Note: "note"}
	tbl.AddRow("x", "1")
	tbl.AddRow("longer", "2")
	out := tbl.Render()
	for _, want := range []string{"T", "a", "bbbb", "longer", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestHareFactoryConfigError(t *testing.T) {
	bad := HareFactory(HareOptions{Cores: 2, Servers: 2, Timeshare: false, Techniques: core.AllTechniques()})
	if _, err := bad(sched.PolicyRoundRobin); err == nil {
		t.Fatal("invalid split configuration should fail")
	}
}

func TestCommas(t *testing.T) {
	cases := map[int]string{0: "0", 5: "5", 999: "999", 1000: "1,000", 1234567: "1,234,567"}
	for in, want := range cases {
		if got := commas(in); got != want {
			t.Errorf("commas(%d) = %q, want %q", in, got, want)
		}
	}
}
