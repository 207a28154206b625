package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// groupCommit is durable-churn's WAL group-commit interval: 10 µs at the
// cost model's 2.4 GHz.
const groupCommit = 24000

// clockHz converts virtual cycles to seconds: deployments use the default
// cost model.
var clockHz = sim.DefaultCostModel().ClockHz

// traceRing bounds the spans the traced run keeps (about 80 MiB).
const traceRing = 1 << 20

// deployment is one running Hare system the workload's procs talk to.
type deployment struct {
	sys      *core.System
	rootCore int // where the procs that spawn the workers run
}

// deploy builds and starts a deployment for s and switches on the parallel
// virtual-time engine.
func deploy(s spec, traced bool) (*deployment, error) {
	cfg := core.DefaultConfig()
	cfg.Cores, cfg.Servers = s.workers, s.workers
	if s.durable {
		cfg.Durability = core.Durability{Enabled: true, GroupCommitInterval: groupCommit}
		cfg.Replication = repl.Config{Mode: repl.Sync}
	}
	if traced {
		cfg.Trace = trace.Config{Sample: 1, Ring: traceRing}
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("build deployment: %w", err)
	}
	sys.Start()
	// The benchmark's one engine switch: every workload runs on the parallel
	// engine, whose virtual time comes closest to repeating run to run; the
	// serialized engine's follows host scheduling (NOTES.md).
	if err := sys.SetParallel(true); err != nil {
		sys.Stop()
		return nil, fmt.Errorf("switch on the parallel engine: %w", err)
	}
	return &deployment{sys: sys, rootCore: sys.AppCores()[0]}, nil
}

func (d *deployment) stop() { d.sys.Stop() }

// span is one fsapi.Client call as seen at the client boundary.
type span struct {
	kind               opKind
	bad                bool // result differed from the generator's expectation
	worker             uint16
	err                int32 // errno; -1 for an error that is not one
	hostStart, hostEnd int64 // wall ns since the recorder's epoch
	virtStart, virtEnd sim.Cycles
}

func (s *span) virt() sim.Cycles { return s.virtEnd - s.virtStart }

// failure locates the first call whose result differed.
type failure struct {
	label         string
	worker, index int
	op            op
	detail        string
}

func (f *failure) String() string {
	o := f.op
	return fmt.Sprintf("%s worker %d call %d: %s %q %q off=%d n=%d: %s",
		f.label, f.worker, f.index, o.kind, o.path, o.path2, o.off, o.n, f.detail)
}

// worker is one simulated worker's call state, reused across phases.
type worker struct {
	fd     fsapi.FD
	buf    []byte
	spans  []span
	calls  int
	failed int
	first  *failure
}

// recorder runs phases' op lists through the workers' clients, times every
// call at the client boundary, and checks every result.
type recorder struct {
	epoch   time.Time
	pool    []byte
	workers []*worker
}

func newRecorder(pool []byte, n int) *recorder {
	r := &recorder{epoch: time.Now(), pool: pool, workers: make([]*worker, n)}
	for i := range r.workers {
		r.workers[i] = &worker{buf: make([]byte, 64<<10)}
	}
	return r
}

// totals sums calls attempted and calls failed.
func (r *recorder) totals() (calls, failed int) {
	for _, w := range r.workers {
		calls += w.calls
		failed += w.failed
	}
	return calls, failed
}

// firstFailure returns the failure of the lowest-numbered worker that has
// one, or nil.
func (r *recorder) firstFailure() *failure {
	for _, w := range r.workers {
		if w.first != nil {
			return w.first
		}
	}
	return nil
}

// takeSpans hands over every worker's recorded spans in one exactly sized
// slice and releases the workers' buffers.
func (r *recorder) takeSpans() []span {
	n := 0
	for _, w := range r.workers {
		n += len(w.spans)
	}
	out := make([]span, 0, n)
	for _, w := range r.workers {
		out = append(out, w.spans...)
		w.spans = nil
	}
	return out
}

// phaseTime is one phase's cost on both clocks.
type phaseTime struct {
	wall time.Duration
	virt sim.Cycles
}

// reserve grows every worker's span buffer to take the phases' calls
// without allocating while they run.
func (r *recorder) reserve(phases []phase) {
	for i, w := range r.workers {
		n := 0
		for _, ph := range phases {
			n += len(ph[i])
		}
		w.spans = slices.Grow(w.spans, n)
	}
}

// runPhases runs untimed phases (a preload or a verify pass) one after
// another, each as one fresh proc per op list, and checks every call.
func (d *deployment) runPhases(phases []phase, r *recorder, label string) error {
	for _, ph := range phases {
		h := d.sys.Procs().StartRoot(d.rootCore, []string{label}, func(p *sched.Proc) int {
			return spawnAll(p, len(ph), func(wp *sched.Proc, i int) {
				r.workers[i].run(wp.FS, i, ph[i], r, label, false)
			})
		})
		if h.Wait() != 0 {
			return fmt.Errorf("%s: spawning workers failed", label)
		}
	}
	return nil
}

// spawnAll spawns n procs running body (remote exec, round-robin over the
// cores), waits for all of them, and advances the parent past the last
// exit. If a spawn fails it returns 1 at once, without waiting for the
// procs already spawned.
func spawnAll(p *sched.Proc, n int, body func(wp *sched.Proc, i int)) int {
	handles := make([]*sched.Handle, 0, n)
	for i := 0; i < n; i++ {
		h, err := p.Spawn([]string{"worker"}, func(wp *sched.Proc) int {
			body(wp, i)
			return 0
		}, true)
		if err != nil {
			return 1
		}
		handles = append(handles, h)
	}
	// Under the parallel engine a waiting parent parks its lane, or its
	// stale frontier would hold back every server.
	gp, _ := p.FS.(sched.GateParker)
	parked := gp != nil && gp.GateActive()
	if parked {
		gp.GatePark()
	}
	var latest sim.Cycles
	for _, h := range handles {
		h.Wait()
		latest = max(latest, h.EndTime())
	}
	if parked {
		if ck, ok := p.FS.(sched.Clocked); ok && latest > ck.Clock() {
			ck.AdvanceClock(latest)
		}
		gp.GateResume()
	}
	return 0
}

// crew is the timed rounds' workers: one proc per core, spawned once and
// kept for every round, each a closed loop over the op lists it is handed.
// Between phases every worker parks its lane and waits, so a round spawns
// nothing and the gate's lane count stays fixed however many rounds run.
type crew struct {
	d     *deployment
	r     *recorder
	fs    []fsapi.Client
	work  []chan []op
	ready chan int // a worker index, once parked; -1 if a spawn failed
	label string   // written before work is handed out
	root  *sched.Handle
}

// laneOwner is the part of the Hare client the crew re-joins to the gate.
type laneOwner interface {
	sched.Clocked
	sched.GateParker
	EndpointID() msg.EndpointID
}

// startCrew spawns the workers and waits until all of them are parked.
func (d *deployment) startCrew(r *recorder) (*crew, error) {
	n := len(r.workers)
	c := &crew{d: d, r: r, fs: make([]fsapi.Client, n), work: make([]chan []op, n), ready: make(chan int, n)}
	for i := range c.work {
		c.work[i] = make(chan []op)
	}
	c.root = d.sys.Procs().StartRoot(d.rootCore, []string{"crew"}, func(p *sched.Proc) int {
		st := spawnAll(p, n, func(wp *sched.Proc, i int) {
			c.fs[i] = wp.FS
			for {
				wp.FS.(laneOwner).GatePark()
				c.ready <- i
				ops, ok := <-c.work[i]
				if !ok {
					return
				}
				r.workers[i].run(wp.FS, i, ops, r, c.label, true)
			}
		})
		if st != 0 {
			c.ready <- -1
		}
		return st
	})
	for i := 0; i < n; i++ {
		if <-c.ready < 0 {
			c.stop()
			return nil, fmt.Errorf("spawning the timed workers failed")
		}
	}
	return c, nil
}

// stop lets every worker exit and waits for the crew's root proc.
func (c *crew) stop() {
	for _, w := range c.work {
		close(w)
	}
	c.root.Wait()
}

// runPhase hands each worker its op list, all starting at the latest
// worker clock, and waits until every worker has parked again.
func (c *crew) runPhase(ph phase, label string) phaseTime {
	var start, end sim.Cycles
	for _, fs := range c.fs {
		start = max(start, fs.(laneOwner).Clock())
	}
	// Re-join every lane at the start before any worker runs, as a spawn
	// does from its parent, so no worker's requests are served ahead of
	// another worker's start.
	for _, fs := range c.fs {
		lo := fs.(laneOwner)
		lo.AdvanceClock(start)
		c.d.sys.Network().GateJoin(lo.EndpointID(), start)
	}
	c.label = label
	t0 := time.Now()
	for i, ops := range ph {
		c.work[i] <- ops
	}
	for range ph {
		<-c.ready
	}
	wall := time.Since(t0)
	for _, fs := range c.fs {
		end = max(end, fs.(laneOwner).Clock())
	}
	return phaseTime{wall: wall, virt: end - start}
}

// result is what one call returned.
type result struct {
	n    int
	err  error
	stat fsapi.Stat
	ents []fsapi.Dirent
}

// run issues ops in order, checks each result, and with keep set records a
// span per call.
func (w *worker) run(fs fsapi.Client, idx int, ops []op, r *recorder, label string, keep bool) {
	clk := fs.(sched.Clocked)
	for i := range ops {
		o := &ops[i]
		v0, h0 := clk.Clock(), time.Since(r.epoch)
		res := w.call(fs, o, r.pool)
		h1, v1 := time.Since(r.epoch), clk.Clock()
		detail := w.check(o, &res)
		w.calls++
		if detail != "" {
			w.failed++
			if w.first == nil {
				w.first = &failure{label: label, worker: idx, index: i, op: *o, detail: detail}
			}
		}
		if keep {
			w.spans = append(w.spans, span{
				kind: o.kind, bad: detail != "", worker: uint16(idx), err: errnoOf(res.err),
				hostStart: int64(h0), hostEnd: int64(h1), virtStart: v0, virtEnd: v1,
			})
		}
	}
}

func (w *worker) call(fs fsapi.Client, o *op, pool []byte) (res result) {
	switch o.kind {
	case kOpen:
		w.fd, res.err = fs.Open(o.path, int(o.flags), fsapi.Mode644)
	case kClose:
		res.err = fs.Close(w.fd)
	case kRead:
		if int(o.n) > len(w.buf) {
			w.buf = make([]byte, o.n)
		}
		res.n, res.err = fs.Pread(w.fd, w.buf[:o.n], o.off)
	case kWrite:
		res.n, res.err = fs.Pwrite(w.fd, pool[o.src:o.src+o.n], o.off)
	case kStat:
		res.stat, res.err = fs.Stat(o.path)
	case kMkdir:
		res.err = fs.Mkdir(o.path, fsapi.MkdirOpt{Distributed: o.flags == 1})
	case kUnlink:
		res.err = fs.Unlink(o.path)
	case kRename:
		res.err = fs.Rename(o.path, o.path2)
	case kReaddir:
		res.ents, res.err = fs.ReadDir(o.path)
	case kFsync:
		res.err = fs.Fsync(w.fd)
	}
	return res
}

// check compares a call's result with the generator's expectation and
// describes any difference.
func (w *worker) check(o *op, res *result) string {
	if res.err != nil {
		return "error: " + res.err.Error()
	}
	switch o.kind {
	case kRead:
		if int64(res.n) != o.want {
			return fmt.Sprintf("read %d bytes, want %d", res.n, o.want)
		}
		if res.n > 0 && checksum(w.buf[:res.n]) != o.sum {
			return "read bytes differ from the expected contents"
		}
	case kWrite:
		if res.n != int(o.n) {
			return fmt.Sprintf("wrote %d bytes, want %d", res.n, o.n)
		}
	case kStat:
		if res.stat.Size != o.want || res.stat.Type != fsapi.TypeRegular {
			return fmt.Sprintf("stat gave %v of size %d, want a file of size %d", res.stat.Type, res.stat.Size, o.want)
		}
	case kReaddir:
		var h uint32
		for _, e := range res.ents {
			h += nameHash(e.Name)
		}
		if int64(len(res.ents)) != o.want || h != o.sum {
			return fmt.Sprintf("readdir gave %d entries, want %d (or the names differ)", len(res.ents), o.want)
		}
	}
	return ""
}

func errnoOf(err error) int32 {
	if err == nil {
		return 0
	}
	var e fsapi.Errno
	if errors.As(err, &e) {
		return int32(e)
	}
	return -1
}
