package sim

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateEmptySafe: with no lanes joined, nothing constrains the system.
func TestGateEmptySafe(t *testing.T) {
	g := NewGate()
	if !g.SafeAt(0) || !g.SafeAt(1<<40) {
		t.Fatal("empty gate must be safe at any time")
	}
}

// TestGateBumpConstrains: a joined lane holds the safe time at its frontier.
func TestGateBumpConstrains(t *testing.T) {
	g := NewGate()
	g.Bump(0, 100)
	if !g.SafeAt(100) {
		t.Fatal("safe time must reach the lone lane's frontier")
	}
	if g.SafeAt(101) {
		t.Fatal("safe time must not pass the lone lane's frontier")
	}
	g.Bump(0, 250)
	if !g.SafeAt(250) || g.SafeAt(251) {
		t.Fatal("raising the frontier must move the safe time with it")
	}
}

// TestGateBumpMonotone: Bump never lowers an active lane's frontier.
func TestGateBumpMonotone(t *testing.T) {
	g := NewGate()
	g.Bump(0, 200)
	g.Bump(0, 50) // ignored: active lanes only move forward
	if g.SafeAt(51) == false {
		t.Fatal("stale Bump lowered an active lane's frontier")
	}
	if !g.SafeAt(200) {
		t.Fatal("frontier should still be 200")
	}
}

// TestGateMinOverLanes: the safe time is the minimum frontier over all
// active lanes.
func TestGateMinOverLanes(t *testing.T) {
	g := NewGate()
	g.Bump(0, 100)
	g.Bump(1, 70)
	g.Bump(2, 130)
	if !g.SafeAt(70) || g.SafeAt(71) {
		t.Fatal("safe time must be the minimum frontier (70)")
	}
	g.Bump(1, 400)
	if !g.SafeAt(100) || g.SafeAt(101) {
		t.Fatal("after the laggard advances, the next minimum (100) governs")
	}
}

// TestGateIdleReleases: idling a lane removes its constraint; resuming
// restores one at the wakeup time.
func TestGateIdleReleases(t *testing.T) {
	g := NewGate()
	g.Bump(0, 50)
	g.Bump(1, 500)
	if g.SafeAt(51) {
		t.Fatal("lane 0 should constrain at 50")
	}
	g.Idle(0)
	if !g.SafeAt(500) || g.SafeAt(501) {
		t.Fatal("after idling lane 0, lane 1's frontier (500) governs")
	}
	// Resume only affects idle lanes.
	g.Resume(1, 10) // lane 1 is active: ignored
	if !g.SafeAt(500) {
		t.Fatal("Resume must not lower an active lane's frontier")
	}
	g.Resume(0, 600)
	if g.SafeAt(501) {
		t.Fatal("resumed lane 0 at 600 cannot raise the safe time past lane 1")
	}
	g.Idle(1)
	if !g.SafeAt(600) || g.SafeAt(601) {
		t.Fatal("lane 0's resumed frontier (600) must now govern")
	}
}

// TestGateResumeLowersCache: the monotone safe-time cache must drop when a
// lane resumes below it (the waker's handoff), or a server could serve an
// arrival that the resumed lane can still undercut.
func TestGateResumeLowersCache(t *testing.T) {
	g := NewGate()
	g.Bump(0, 1000)
	g.Idle(1) // lane 1 parks
	if !g.SafeAt(1000) {
		t.Fatal("lane 0's frontier should allow 1000 (and prime the cache)")
	}
	g.Resume(1, 300)
	if g.SafeAt(301) {
		t.Fatal("cache must observe the resumed lane's lower frontier")
	}
	if !g.SafeAt(300) {
		t.Fatal("safe time should still reach the resumed frontier")
	}
}

// TestGateJoinLowersCache: a first Bump below the cached safe time must be
// observed (join-time floor).
func TestGateJoinLowersCache(t *testing.T) {
	g := NewGate()
	g.Bump(0, 1000)
	if !g.SafeAt(900) {
		t.Fatal("prime the cache")
	}
	g.Bump(7, 400) // new lane joins behind the cache
	if g.SafeAt(401) {
		t.Fatal("join below the cached safe time must constrain again")
	}
}

// TestGateConcurrent hammers the gate from many goroutines and checks the
// invariant that SafeAt never returns true for a time beyond a frontier
// that some active lane is still holding far below it.
func TestGateConcurrent(t *testing.T) {
	g := NewGate()
	const lanes = 8
	// Lane 0 stays pinned low the whole time.
	g.Bump(0, 10)
	var wg sync.WaitGroup
	for id := 1; id < lanes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for t := Cycles(0); t < 5000; t += 7 {
				g.Bump(id, t)
				if t%35 == 0 {
					g.Idle(id)
					g.Resume(id, t+1)
				}
			}
		}(id)
	}
	stop := make(chan struct{})
	var violated bool
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g.SafeAt(11) {
				violated = true
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if violated {
		t.Fatal("SafeAt passed a pinned active lane's frontier")
	}
}

// TestGateSafeAtAllocs: the polling path must not allocate.
func TestGateSafeAtAllocs(t *testing.T) {
	g := NewGate()
	g.Bump(0, 100)
	g.Bump(1, 200)
	allocs := testing.AllocsPerRun(100, func() {
		g.SafeAt(50)
		g.SafeAt(150)
		g.Bump(0, 100)
	})
	if allocs != 0 {
		t.Fatalf("gate polling allocated %.1f/op, want 0", allocs)
	}
}

// TestGateWaiterWakesOnBump: a consumer blocked on a published head is woken
// when the pinning lane's frontier advances past its arrival. This is the
// condition-variable replacement for the old spin/sleep Pause poll.
func TestGateWaiterWakesOnBump(t *testing.T) {
	g := NewGate()
	g.Bump(0, 10) // pins the safe time at 10
	var mu sync.Mutex
	c := sync.NewCond(&mu)
	w := g.Subscribe(c)
	woke := make(chan struct{})
	go func() {
		mu.Lock()
		for {
			w.Begin(100)
			if g.SafeAt(100) {
				w.End()
				break
			}
			c.Wait()
			w.End()
		}
		mu.Unlock()
		close(woke)
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter park (works unparked too)
	g.Bump(0, 100)
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by a frontier advance")
	}
}

// TestGateWaiterWakesOnIdle: parking the pinning lane releases the
// constraint and must wake blocked consumers too.
func TestGateWaiterWakesOnIdle(t *testing.T) {
	g := NewGate()
	g.Bump(0, 10)
	var mu sync.Mutex
	c := sync.NewCond(&mu)
	w := g.Subscribe(c)
	woke := make(chan struct{})
	go func() {
		mu.Lock()
		for {
			w.Begin(100)
			if g.SafeAt(100) {
				w.End()
				break
			}
			c.Wait()
			w.End()
		}
		mu.Unlock()
		close(woke)
	}()
	time.Sleep(5 * time.Millisecond)
	g.Idle(0)
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by the pinning lane idling")
	}
}

// TestGateSubscribeIdempotent: re-subscribing the same cond must not grow the
// subscriber list (a consumer subscribes once per gate, defensively retried)
// and must return the same registration.
func TestGateSubscribeIdempotent(t *testing.T) {
	g := NewGate()
	var mu sync.Mutex
	c := sync.NewCond(&mu)
	w1 := g.Subscribe(c)
	w2 := g.Subscribe(c)
	if n := len(*g.subs.Load()); n != 1 {
		t.Fatalf("subscriber list has %d entries, want 1", n)
	}
	if w1 != w2 {
		t.Fatal("re-subscribing returned a second registration")
	}
}

// TestGateWakePathAllocs: the wake path — a frontier raise that releases a
// live waiter's head, lane parks, resumes and joins — must not allocate.
// Together with TestGateSafeAtAllocs this keeps the whole gate wait path at
// 0 allocs/op.
func TestGateWakePathAllocs(t *testing.T) {
	g := NewGate()
	g.Bump(0, 10) // pins the safe time below the waiter's head
	var mu sync.Mutex
	c := sync.NewCond(&mu)
	w := g.Subscribe(c)
	stop := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		mu.Lock()
		for !stop {
			w.Begin(50)
			c.Wait()
			w.End()
		}
		mu.Unlock()
	}()
	time.Sleep(5 * time.Millisecond) // park the waiter so the raise signals
	var tt Cycles = 100
	allocs := testing.AllocsPerRun(200, func() {
		tt++
		g.Bump(0, 60)   // finite raise past the head: releases and signals
		g.Idle(0)       // park
		g.Resume(0, 10) // resume: re-pins below the head
		g.Idle(1)       // park another lane
		g.Bump(1, tt)   // and re-join it
	})
	mu.Lock()
	stop = true
	c.Broadcast()
	mu.Unlock()
	<-done
	if allocs != 0 {
		t.Fatalf("gate wake path allocated %.1f/op, want 0", allocs)
	}
}

// countingLocker counts how often a gate locks a consumer's cond.
type countingLocker struct {
	sync.Mutex
	locks atomic.Int32
}

func (c *countingLocker) Lock() {
	c.locks.Add(1)
	c.Mutex.Lock()
}

// TestGateNoFutileWakeups: a frontier move signals only the consumers it
// releases. A raise that leaves a waiter's head unsafe, or that comes from a
// lane that was not holding the waiter, never touches the waiter's cond.
func TestGateNoFutileWakeups(t *testing.T) {
	g := NewGate()
	g.Bump(0, 100)
	g.Bump(1, 200)
	g.Bump(2, 1000)
	var la, lb countingLocker
	a := g.Subscribe(sync.NewCond(&la))
	b := g.Subscribe(sync.NewCond(&lb))
	a.Begin(150) // held by lane 0
	b.Begin(300) // held by lanes 0 and 1
	want := func(step string, wa, wb int32) {
		t.Helper()
		if la.locks.Load() != wa || lb.locks.Load() != wb {
			t.Fatalf("%s: cond locks a=%d b=%d, want a=%d b=%d",
				step, la.locks.Load(), lb.locks.Load(), wa, wb)
		}
	}
	g.Bump(0, 120)
	want("raise short of both heads", 0, 0)
	g.Bump(2, 2000)
	g.Idle(2)
	want("lane 2 holds neither waiter", 0, 0)
	g.Bump(0, 250)
	want("lane 0 passes a's head; lane 1 is past it too", 1, 0)
	g.Idle(0)
	want("lane 0 releases its hold on b, but lane 1 still holds it", 1, 0)
	g.Bump(1, 250)
	want("lane 1 raise short of b's head", 1, 0)
	g.Bump(1, 300)
	want("lane 1 passes b's head, the last hold", 1, 1)
	g.Bump(1, 5000)
	want("no head left between the old and new frontier", 1, 1)
	a.End()
	b.End()
}

// TestGateNoLostWakeups: many lanes bump, idle and resume concurrently while
// many consumers block on random heads just ahead of the slowest lane. Every
// consumer must return once its head is safe. A lost wakeup hangs its
// consumer for good: once the last lane holding a head has passed it, no
// later move qualifies that head again.
func TestGateNoLostWakeups(t *testing.T) {
	const lanes, waiters, heads = 16, 16, 2000
	g := NewGate()
	for l := 0; l < lanes; l++ {
		g.Bump(l, 0)
	}
	var stop atomic.Bool
	var lw sync.WaitGroup
	for l := 0; l < lanes; l++ {
		lw.Add(1)
		go func(l int) {
			defer lw.Done()
			rng := rand.New(rand.NewSource(int64(l)))
			var ft Cycles
			for !stop.Load() {
				ft += Cycles(1 + rng.Intn(20))
				if rng.Intn(16) == 0 {
					g.Idle(l)
					runtime.Gosched()
					g.Resume(l, ft)
				} else {
					g.Bump(l, ft)
				}
				runtime.Gosched()
			}
			g.Idle(l)
		}(l)
	}
	var ww sync.WaitGroup
	for i := 0; i < waiters; i++ {
		ww.Add(1)
		go func(i int) {
			defer ww.Done()
			var mu sync.Mutex
			c := sync.NewCond(&mu)
			w := g.Subscribe(c)
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			mu.Lock()
			defer mu.Unlock()
			for k := 0; k < heads; k++ {
				h := Cycles(rng.Intn(40))
				if m := g.minFrontier(); m != laneIdle {
					h += Cycles(m - 1) // just ahead of the slowest lane
				}
				for {
					w.Begin(h)
					if g.SafeAt(h) {
						w.End()
						break
					}
					c.Wait()
					w.End()
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		ww.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Error("a consumer blocked on a head the lanes passed was never woken: lost wakeup")
	}
	stop.Store(true)
	lw.Wait()
}

// TestGateActiveSetInvariant: after random join, raise, idle and resume
// sequences the active set holds exactly the lanes with a finite frontier,
// each once and at its recorded slot, and SafeAt agrees with a brute-force
// minimum over every lane.
func TestGateActiveSetInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGate()
	check := func(step int) {
		t.Helper()
		slots := *g.active.Load()
		members := map[*laneFrontier]bool{}
		for i := 0; i < int(g.nActive.Load()); i++ {
			l := slots[i].Load()
			if members[l] || int(l.pos) != i {
				t.Fatalf("step %d: slot %d holds a duplicate or misplaced lane", step, i)
			}
			members[l] = true
		}
		min := uint64(laneIdle)
		for id, l := range *g.lanes.Load() {
			v := l.v.Load()
			if finite(v) != members[l] {
				t.Fatalf("step %d: lane %d frontier %d, active-set member %v", step, id, v, members[l])
			}
			if finite(v) && v < min {
				min = v
			}
		}
		if min == laneIdle {
			if !g.SafeAt(1 << 40) {
				t.Fatalf("step %d: no finite lane, yet unsafe", step)
			}
			return
		}
		at := Cycles(min - 1) // decode
		if !g.SafeAt(at) || g.SafeAt(at+1) {
			t.Fatalf("step %d: SafeAt disagrees with the minimum frontier %d", step, at)
		}
	}
	for step := 0; step < 20000; step++ {
		id := rng.Intn(40)
		at := Cycles(rng.Intn(1000))
		switch rng.Intn(4) {
		case 0, 1:
			g.Bump(id, at)
		case 2:
			g.Idle(id)
		case 3:
			g.Resume(id, at)
		}
		check(step)
	}
}

// TestGateLifecycleFailoverSealPublish models the control lane's hold/resume
// across a failover promotion (seal -> freeze -> publish -> commit): the
// seal RPC's pin holds the safe time at the seal boundary, parking between
// stages releases it, and a requester resumed by the commit reply re-joins
// at the commit arrival — so no lane can be served "into the past" of the
// promotion epoch.
func TestGateLifecycleFailoverSealPublish(t *testing.T) {
	g := NewGate()
	const ctl, parked, survivor = 0, 1, 2
	g.Bump(survivor, 2000) // a quiesced-but-tracked lane far ahead
	g.Idle(parked)         // requester parked on the frozen shard

	// Seal: the ctl RPC joins at the seal request's arrival and holds.
	g.Bump(ctl, 1000)
	if !g.SafeAt(1000) || g.SafeAt(1001) {
		t.Fatal("seal pin must hold the safe time exactly at the seal arrival")
	}
	// Seal done: the ctl lane parks between stages (publish is direct
	// installation, not messages) — the constraint must lift.
	g.Idle(ctl)
	if !g.SafeAt(2000) || g.SafeAt(2001) {
		t.Fatal("with ctl parked, only the survivor's frontier constrains")
	}
	// Commit: the ctl pin returns at the commit arrival and the parked
	// requester is resumed at its reply's arrival under that pin.
	g.Bump(ctl, 1500)
	g.Resume(parked, 1500)
	g.Resume(survivor, 1) // active lanes are never lowered by Resume
	g.Idle(ctl)           // commit RPC completes; ctl parks again
	if g.SafeAt(1501) {
		t.Fatal("resumed requester must constrain at the commit arrival")
	}
	if !g.SafeAt(1500) {
		t.Fatal("safe time must reach the commit arrival")
	}
}

// TestGateLifecycleCrashWhileParked models a server crash while a requester
// lane is parked on its frozen shard: the crash parks the server's lane, the
// gate is unconstrained (both lanes idle), and recovery re-joins below the
// primed cache — which must constrain again (the recovery frontier).
func TestGateLifecycleCrashWhileParked(t *testing.T) {
	g := NewGate()
	const srv, requester = 0, 1
	g.Bump(srv, 5000) // server's replication lane pinned by an in-flight ship
	g.Idle(requester) // requester parked on the frozen shard
	if g.SafeAt(5001) {
		t.Fatal("ship pin must constrain")
	}
	g.Idle(srv) // crash: the dead server's lanes park
	if !g.SafeAt(1 << 40) {
		t.Fatal("a fully parked gate must not constrain")
	}
	// Recovery: the server's first post-replay send re-joins below the
	// cache primed by the check above.
	g.Bump(srv, 6000)
	if g.SafeAt(6001) {
		t.Fatal("recovery re-join must lower the cached safe time")
	}
	if !g.SafeAt(6000) {
		t.Fatal("safe time must reach the recovery frontier")
	}
}

// TestGateLifecycleForkFanoutDuringCommit models workload fork fan-out
// racing a migration commit: the parent parks while children run, children
// join at spawn time under the parent's (then-active) floor, the commit pin
// holds, and the parent resumes at the latest child end.
func TestGateLifecycleForkFanoutDuringCommit(t *testing.T) {
	g := NewGate()
	const parent, child1, child2, ctl = 0, 1, 2, 3
	g.Bump(parent, 100)
	// Children join at their spawn times (>= the parent's frontier).
	g.Bump(child1, 100)
	g.Bump(child2, 110)
	g.Idle(parent) // parent parks to wait for the children
	// Migration commit RPC pins the ctl lane while children still run.
	g.Bump(ctl, 150)
	if !g.SafeAt(100) || g.SafeAt(101) {
		t.Fatal("slowest child governs while the parent is parked")
	}
	g.Bump(child1, 400)
	g.Bump(child2, 300)
	g.Idle(ctl) // commit served and replied; ctl parks
	if !g.SafeAt(300) || g.SafeAt(301) {
		t.Fatal("commit pin released: children govern again")
	}
	// Children exit; parent resumes at the latest child end.
	g.Idle(child1)
	g.Idle(child2)
	g.Bump(parent, 400)
	if !g.SafeAt(400) || g.SafeAt(401) {
		t.Fatal("parent must re-join at the fan-out's latest end time")
	}
}
