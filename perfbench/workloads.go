package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/fsapi"
)

// workload generates one benchmark workload's operation stream from a seed.
// Each worker touches only file names it owns, so every expected result is
// fixed at generation time whatever the interleaving. Rounds must be
// generated in order: the stream is one deterministic sequence per worker.
type workload interface {
	spec() spec
	// writePool is the data every generated write slices from.
	writePool() []byte
	// preload builds the namespace the timed rounds start from.
	preload() []phase
	// round returns the next timed round; its phases are joined one by one.
	round() []phase
	// verify reads back the whole expected namespace and file contents.
	verify() []phase
}

// spec is the deployment a workload runs on: one timeshared file server
// and one worker proc per core.
type spec struct {
	workers int
	// durable turns on the WAL with group commit and sync replication, and
	// checkpoints every server between rounds.
	durable bool
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"meta-storm", "data-rw", "durable-churn"}

// newWorkload builds the named workload; small shrinks it for tests.
func newWorkload(name string, seed uint64, small bool) (workload, error) {
	switch name {
	case "meta-storm":
		if small {
			return newMetaStorm(seed, 4, 2, 24, 4, 4, 40), nil
		}
		return newMetaStorm(seed, 32, 16, 496, 64, 16, 96), nil
	case "data-rw":
		if small {
			return newDataRW(seed, 4, 4, 16<<10, 64<<10, 6, 12), nil
		}
		return newDataRW(seed, 8, 32, 16<<10, 1<<20, 24, 48), nil
	case "durable-churn":
		if small {
			return newDurableChurn(seed, 4, 8, 12), nil
		}
		return newDurableChurn(seed, 8, 48, 160), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// splitPath returns a path's directory and base name.
func splitPath(p string) (dir, name string) {
	i := strings.LastIndexByte(p, '/')
	return p[:i], p[i+1:]
}

// byDir groups live files by their directory's path, with base names.
func byDir(files []*file) map[string][]string {
	out := make(map[string][]string)
	for _, f := range files {
		d, n := splitPath(f.path)
		out[d] = append(out[d], n)
	}
	return out
}

// soloPhase is a phase in which only worker 0 runs ops.
func soloPhase(workers int, ops []op) phase {
	ph := make(phase, workers)
	ph[0] = ops
	return ph
}

// ---- meta-storm ----------------------------------------------------------

// metaStorm is the metadata workload: per-worker directory trees plus one
// shared distributed directory, and a timed mix of create+close, stat,
// open+close, rename, unlink and small readdir with no data.
type metaStorm struct {
	*gen
	workers                      int
	dirs, perDir, shared, smallN int
	steps                        int
	live                         []liveSet
	next                         []int
	small                        [][]string
}

func newMetaStorm(seed uint64, workers, dirs, perDir, shared, smallN, steps int) *metaStorm {
	return &metaStorm{
		gen: newGen(seed, workers), workers: workers,
		dirs: dirs, perDir: perDir, shared: shared, smallN: smallN, steps: steps,
		live: make([]liveSet, workers), next: make([]int, workers), small: make([][]string, workers),
	}
}

func (m *metaStorm) spec() spec { return spec{workers: m.workers} }

func (m *metaStorm) workerDir(w int) string { return fmt.Sprintf("/m/w%02d", w) }

// newPath names a fresh file of worker w: in the shared directory with
// probability 1/4, otherwise in one of the worker's own directories.
func (m *metaStorm) newPath(e *emitter, w int) string {
	m.next[w]++
	if e.r.IntN(4) == 0 {
		return fmt.Sprintf("/m/s/w%02d-f%07d", w, m.next[w])
	}
	return fmt.Sprintf("%s/d%02d/f%07d", m.workerDir(w), e.r.IntN(m.dirs), m.next[w])
}

func (m *metaStorm) create(e *emitter, w int, path string) {
	f := &file{path: path}
	e.createFile(f, 0, 1, false)
	m.live[w].add(f)
}

func (m *metaStorm) preload() []phase {
	root := m.emitter(0)
	root.mkdir("/m", true)
	root.mkdir("/m/s", true)
	trees := make(phase, m.workers)
	for w := range trees {
		e := m.emitter(w)
		wd := m.workerDir(w)
		e.mkdir(wd, true)
		for d := 0; d < m.dirs; d++ {
			e.mkdir(fmt.Sprintf("%s/d%02d", wd, d), false)
		}
		e.mkdir(wd+"/small", false)
		for i := 0; i < m.smallN; i++ {
			name := fmt.Sprintf("g%02d", i)
			e.createFile(&file{path: wd + "/small/" + name}, 0, 1, false)
			m.small[w] = append(m.small[w], name)
		}
		for i := 0; i < m.dirs*m.perDir; i++ {
			m.next[w]++
			m.create(e, w, fmt.Sprintf("%s/d%02d/f%07d", wd, i%m.dirs, m.next[w]))
		}
		for i := 0; i < m.shared; i++ {
			m.next[w]++
			m.create(e, w, fmt.Sprintf("/m/s/w%02d-f%07d", w, m.next[w]))
		}
		trees[w] = e.ops
	}
	return []phase{soloPhase(m.workers, root.ops), trees}
}

func (m *metaStorm) round() []phase {
	ph := make(phase, m.workers)
	for w := range ph {
		e := m.emitter(w)
		live := &m.live[w]
		for s := 0; s < m.steps; s++ {
			x := e.r.IntN(100)
			// Keep a floor of live files so unlink, stat and rename
			// always have a target.
			if len(live.files) < m.perDir {
				x = 0
			}
			switch {
			case x < 16:
				m.create(e, w, m.newPath(e, w))
			case x < 32:
				f := live.pick(e.r)
				e.unlink(f)
				live.remove(f)
			case x < 62:
				e.stat(live.pick(e.r))
			case x < 84:
				e.open(live.pick(e.r).path, fsapi.ORdOnly)
				e.close()
			case x < 94:
				f := live.pick(e.r)
				e.rename(f, m.newPath(e, w))
			default:
				e.readdir(m.workerDir(w)+"/small", m.small[w])
			}
		}
		ph[w] = e.ops
	}
	return []phase{ph}
}

func (m *metaStorm) verify() []phase {
	ph := make(phase, m.workers)
	var shared []string
	for w := range ph {
		e := m.emitter(w)
		wd := m.workerDir(w)
		dirs := byDir(m.live[w].files)
		top := []string{"small"}
		for d := 0; d < m.dirs; d++ {
			name := fmt.Sprintf("d%02d", d)
			top = append(top, name)
			e.readdir(wd+"/"+name, dirs[wd+"/"+name])
		}
		e.readdir(wd, top)
		e.readdir(wd+"/small", m.small[w])
		shared = append(shared, dirs["/m/s"]...)
		ph[w] = e.ops
	}
	e := m.emitter(0)
	e.readdir("/m/s", shared)
	ph[0] = append(ph[0], e.ops...)
	return []phase{ph}
}

// ---- data-rw -------------------------------------------------------------

// dataRW is the data workload: a few hundred files of 16 KiB–1 MiB. Each
// worker owns a private half (read and overwritten only by itself) and a
// shared half (written only in the write phase, read by other workers in
// the read/write phase).
type dataRW struct {
	*gen
	workers, perW    int
	minSize, maxSize int
	stepsW, stepsRW  int
	priv, shared     [][]*file
}

func newDataRW(seed uint64, workers, perW, minSize, maxSize, stepsW, stepsRW int) *dataRW {
	return &dataRW{
		gen: newGen(seed, workers), workers: workers, perW: perW,
		minSize: minSize, maxSize: maxSize, stepsW: stepsW, stepsRW: stepsRW,
		priv: make([][]*file, workers), shared: make([][]*file, workers),
	}
}

func (d *dataRW) spec() spec { return spec{workers: d.workers} }

// ioChunk caps one read or write call of the preload and the verify pass.
const ioChunk = 64 << 10

func (d *dataRW) preload() []phase {
	root := d.emitter(0)
	root.mkdir("/data", true)
	files := make(phase, d.workers)
	for w := range files {
		e := d.emitter(w)
		dir := fmt.Sprintf("/data/w%02d", w)
		e.mkdir(dir, true)
		lo, hi := math.Log(float64(d.minSize)), math.Log(float64(d.maxSize))
		for i := 0; i < d.perW; i++ {
			size := int(math.Exp(lo + e.r.Float64()*(hi-lo)))
			f := &file{}
			if i%2 == 0 {
				f.path = fmt.Sprintf("%s/p%02d", dir, i/2)
				d.priv[w] = append(d.priv[w], f)
			} else {
				f.path = fmt.Sprintf("%s/s%02d", dir, i/2)
				d.shared[w] = append(d.shared[w], f)
			}
			e.createFile(f, size, ioChunk, false)
		}
		files[w] = e.ops
	}
	return []phase{soloPhase(d.workers, root.ops), files}
}

// partialWrites opens f read-write and overwrites 1–3 unaligned ranges of up
// to 32 KiB inside it.
func partialWrites(e *emitter, f *file) {
	e.open(f.path, fsapi.ORdWr)
	for k := 1 + e.r.IntN(3); k > 0; k-- {
		off := e.r.IntN(len(f.data))
		e.write(f, int64(off), 1+e.r.IntN(min(32<<10, len(f.data)-off)))
	}
	e.close()
}

// partialReads opens f read-only and reads 1–3 unaligned ranges of up to
// 64 KiB, which may run past the end.
func partialReads(e *emitter, f *file) {
	e.open(f.path, fsapi.ORdOnly)
	for k := 1 + e.r.IntN(3); k > 0; k-- {
		e.read(f, int64(e.r.IntN(len(f.data))), 1+e.r.IntN(64<<10))
	}
	e.close()
}

func (d *dataRW) round() []phase {
	writes := make(phase, d.workers)
	for w := range writes {
		e := d.emitter(w)
		for s := 0; s < d.stepsW; s++ {
			if e.r.IntN(2) == 0 {
				partialWrites(e, d.priv[w][e.r.IntN(len(d.priv[w]))])
			} else {
				partialWrites(e, d.shared[w][e.r.IntN(len(d.shared[w]))])
			}
		}
		writes[w] = e.ops
	}
	mixed := make(phase, d.workers)
	for w := range mixed {
		e := d.emitter(w)
		for s := 0; s < d.stepsRW; s++ {
			x := e.r.IntN(10)
			switch {
			case x < 3:
				partialReads(e, d.priv[w][e.r.IntN(len(d.priv[w]))])
			case x < 6:
				nb := (w + 1 + e.r.IntN(d.workers-1)) % d.workers
				partialReads(e, d.shared[nb][e.r.IntN(len(d.shared[nb]))])
			default:
				partialWrites(e, d.priv[w][e.r.IntN(len(d.priv[w]))])
			}
		}
		mixed[w] = e.ops
	}
	return []phase{writes, mixed}
}

func (d *dataRW) verify() []phase {
	ph := make(phase, d.workers)
	for w := range ph {
		e := d.emitter(w)
		for _, f := range append(append([]*file(nil), d.priv[w]...), d.shared[w]...) {
			e.stat(f)
			e.open(f.path, fsapi.ORdOnly)
			e.readAll(f, ioChunk)
			e.close()
		}
		ph[w] = e.ops
	}
	return []phase{ph}
}

// ---- durable-churn -------------------------------------------------------

// durableChurn is the durability workload: rounds of create+write+fsync,
// overwrite+fsync, stat and unlink on a WAL + sync-replication deployment.
type durableChurn struct {
	*gen
	workers, files int
	steps          int
	live           []liveSet
	next           []int
}

func newDurableChurn(seed uint64, workers, files, steps int) *durableChurn {
	return &durableChurn{
		gen: newGen(seed, workers), workers: workers, files: files, steps: steps,
		live: make([]liveSet, workers), next: make([]int, workers),
	}
}

func (c *durableChurn) spec() spec {
	return spec{workers: c.workers, durable: true}
}

func (c *durableChurn) create(e *emitter, w int) {
	c.next[w]++
	f := &file{path: fmt.Sprintf("/dur/w%02d/f%07d", w, c.next[w])}
	e.createFile(f, 1+e.r.IntN(16<<10), 8<<10, true)
	c.live[w].add(f)
}

func (c *durableChurn) preload() []phase {
	root := c.emitter(0)
	root.mkdir("/dur", true)
	files := make(phase, c.workers)
	for w := range files {
		e := c.emitter(w)
		e.mkdir(fmt.Sprintf("/dur/w%02d", w), true)
		for i := 0; i < c.files; i++ {
			c.create(e, w)
		}
		files[w] = e.ops
	}
	return []phase{soloPhase(c.workers, root.ops), files}
}

func (c *durableChurn) round() []phase {
	ph := make(phase, c.workers)
	for w := range ph {
		e := c.emitter(w)
		live := &c.live[w]
		for s := 0; s < c.steps; s++ {
			x := e.r.IntN(100)
			if len(live.files) < c.files/2 {
				x = 0
			}
			switch {
			case x < 22:
				c.create(e, w)
			case x < 44:
				f := live.pick(e.r)
				e.unlink(f)
				live.remove(f)
			case x < 74:
				f := live.pick(e.r)
				e.open(f.path, fsapi.ORdWr)
				off := e.r.IntN(len(f.data))
				e.write(f, int64(off), 1+e.r.IntN(min(4<<10, len(f.data)-off)))
				e.fsync()
				e.close()
			default:
				e.stat(live.pick(e.r))
			}
		}
		ph[w] = e.ops
	}
	return []phase{ph}
}

func (c *durableChurn) verify() []phase {
	ph := make(phase, c.workers)
	for w := range ph {
		e := c.emitter(w)
		files := append([]*file(nil), c.live[w].files...)
		sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
		dir := fmt.Sprintf("/dur/w%02d", w)
		e.readdir(dir, byDir(files)[dir])
		for _, f := range files {
			e.stat(f)
			e.open(f.path, fsapi.ORdOnly)
			e.readAll(f, ioChunk)
			e.close()
		}
		ph[w] = e.ops
	}
	return []phase{ph}
}
