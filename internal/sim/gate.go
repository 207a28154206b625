package sim

import (
	"math"
	"sync"
	"sync/atomic"
)

// Gate is the synchronization core of the parallel virtual-time engine
// (DESIGN.md §13). Every request-originating endpoint ("lane") publishes a
// conservative *frontier*: a lower bound on the virtual send time of any
// message it will send in the future. A server may serve the earliest queued
// request with arrival time a once the minimum frontier over all lanes is at
// least a — because message delivery is atomic (a sent message is already
// queued), every not-yet-sent message has SentAt >= its sender's frontier >=
// a, hence ArriveAt > a, so no earlier arrival can still appear.
//
// Frontier values per lane:
//   - absent (never joined): the lane does not constrain the system yet. A
//     lane joins at its first send; its first send time is always >= the
//     current minimum frontier (it was caused by an already-tracked lane),
//     so joining never lowers the effective minimum retroactively.
//   - finite t: the lane promises not to send before t. Updated monotonically
//     by sends (to SentAt) and by blocking RPCs (to the outstanding request's
//     arrival time — the reply cannot be sent before the request arrives, so
//     the lane cannot wake, let alone send, before then).
//   - infinity (idle): the lane is quiescent — exited, parked on a reply
//     whose timing another lane controls (exec proxies, parked pipe ops), or
//     waiting on child processes. Idle lanes do not constrain the system;
//     their next send re-joins at its send time.
//
// The lanes with a finite frontier also sit in a compact active set, so the
// minimum scan costs the number of running lanes, not the number of
// endpoints ever registered. Only the transitions into and out of the finite
// state (join, Resume, Idle) take the gate's mutex; a finite raise, paid on
// every send, is one lock-free CAS.
//
// Serialized mode simply never installs a Gate; every call site gates on a
// nil *Gate and compiles to the legacy path, which stays bit-identical.
type Gate struct {
	mu    sync.Mutex // lane growth, active-set changes, subscriptions
	lanes atomic.Pointer[[]*laneFrontier]

	// active[:nActive] holds every lane whose frontier is finite (a lane is
	// added before its frontier turns finite and removed after it turns
	// idle). A removal moves the last member into the vacated slot, so a
	// member only ever moves to a lower slot; minFrontier scans from the top
	// down and therefore never misses a lane that stays finite throughout
	// its scan. The array always has one slot per lane and is replaced, not
	// resized, when lanes grow.
	active  atomic.Pointer[[]atomic.Pointer[laneFrontier]]
	nActive atomic.Int32

	// cachedSafe is a monotone cache of the last computed minimum frontier.
	// SafeAt answers from it without scanning when possible; it is lowered
	// only when a lane joins or resumes below it.
	cachedSafe atomic.Uint64

	// subs are the registrations of gated consumers (one per gated queue,
	// registered once via Subscribe). waiters counts consumers currently
	// between BeginWait and EndWait; release reads the published heads only
	// when it is nonzero, so the common no-waiter case costs a single atomic
	// load on the raise path.
	subs    atomic.Pointer[[]*Waiter]
	waiters atomic.Int32
}

// laneFrontier is one lane's published frontier, padded to a cache line so
// concurrent senders do not false-share.
type laneFrontier struct {
	v   atomic.Uint64
	pos int32 // slot in Gate.active while a member; guarded by Gate.mu
	_   [52]byte
}

// Waiter is a gated consumer's registration: the condition variable it
// blocks on and the encoded arrival time of the request it is blocked on
// (its head). Padded to a cache line: advancers read every head.
type Waiter struct {
	g    *Gate
	c    *sync.Cond
	head atomic.Uint64 // enc(arrival) while blocked, 0 otherwise
	_    [40]byte
}

const (
	laneAbsent = 0              // never joined
	laneIdle   = math.MaxUint64 // quiescent, does not constrain
)

// enc biases a cycle count so that 0 remains the "absent" sentinel.
func enc(t Cycles) uint64 {
	v := uint64(t) + 1
	if v == 0 { // t == MaxUint64: clamp into idle
		return laneIdle
	}
	return v
}

func finite(v uint64) bool { return v != laneAbsent && v != laneIdle }

// NewGate returns an empty gate; lanes join lazily at their first Bump.
func NewGate() *Gate {
	g := &Gate{}
	noLanes := make([]*laneFrontier, 0)
	g.lanes.Store(&noLanes)
	noSlots := make([]atomic.Pointer[laneFrontier], 0)
	g.active.Store(&noSlots)
	noSubs := make([]*Waiter, 0)
	g.subs.Store(&noSubs)
	return g
}

func (g *Gate) lane(id int) *laneFrontier {
	ls := *g.lanes.Load()
	if id < len(ls) {
		return ls[id]
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ls = *g.lanes.Load()
	if id < len(ls) {
		return ls[id]
	}
	n := len(ls)*2 + 8
	if n <= id {
		n = id + 8
	}
	grown := make([]*laneFrontier, n)
	copy(grown, ls)
	for i := len(ls); i < n; i++ {
		grown[i] = &laneFrontier{}
	}
	old := *g.active.Load()
	slots := make([]atomic.Pointer[laneFrontier], n)
	for i := range old {
		slots[i].Store(old[i].Load())
	}
	g.active.Store(&slots)
	g.lanes.Store(&grown)
	return grown[id]
}

// activate adds l, a non-member, to the active set. The caller holds g.mu.
func (g *Gate) activate(l *laneFrontier) {
	n := g.nActive.Load()
	(*g.active.Load())[n].Store(l)
	l.pos = n
	g.nActive.Store(n + 1)
}

// deactivate removes l, a member, from the active set, moving the last
// member into its slot. The caller holds g.mu.
func (g *Gate) deactivate(l *laneFrontier) {
	slots := *g.active.Load()
	last := g.nActive.Load() - 1
	if l.pos != last {
		m := slots[last].Load()
		slots[l.pos].Store(m)
		m.pos = l.pos
	}
	g.nActive.Store(last)
}

// casFloor lowers cachedSafe to at most v.
func (g *Gate) casFloor(v uint64) {
	for {
		cur := g.cachedSafe.Load()
		if cur <= v || g.cachedSafe.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Bump raises lane id's frontier to at least t: the lane promises not to
// send any message with SentAt < t. A first Bump joins the lane; a Bump on
// an idle lane resumes it at t.
func (g *Gate) Bump(id int, t Cycles) {
	nv := enc(t)
	if nv == laneIdle {
		g.Idle(id)
		return
	}
	l := g.lane(id)
	for {
		cur := l.v.Load()
		if !finite(cur) {
			if g.join(l, nv, false) {
				return
			}
			continue // the lane turned finite meanwhile: raise it instead
		}
		if cur >= nv {
			return
		}
		if l.v.CompareAndSwap(cur, nv) {
			// Raising a finite frontier can raise the minimum and release
			// a gated consumer.
			g.release(cur, nv)
			return
		}
	}
}

// join makes a non-finite lane finite at nv: absent or idle, or with
// idleOnly, idle only. It reports false, changing nothing, if the lane is
// not in such a state. Joining or resuming may lower the minimum below the
// cache, so the cache is floored at nv.
func (g *Gate) join(l *laneFrontier, nv uint64, idleOnly bool) bool {
	g.mu.Lock()
	cur := l.v.Load()
	if finite(cur) || (idleOnly && cur != laneIdle) {
		g.mu.Unlock()
		return false
	}
	g.activate(l)
	l.v.Store(nv)
	g.mu.Unlock()
	g.casFloor(nv)
	return true
}

// Idle marks lane id quiescent: it no longer constrains the minimum
// frontier. The lane re-joins automatically at its next Bump.
func (g *Gate) Idle(id int) {
	l := g.lane(id)
	if l.v.Load() == laneIdle {
		return
	}
	g.mu.Lock()
	old := l.v.Swap(laneIdle)
	if finite(old) {
		g.deactivate(l)
	}
	g.mu.Unlock()
	if finite(old) {
		// Dropping a constraint can raise the minimum and release a
		// consumer.
		g.release(old, laneIdle)
	}
}

// Resume lowers an idle lane's frontier to t. It is called by a sender
// delivering the message that will wake the lane (a reply to a parked
// request): the woken lane cannot send before the wakeup arrives at t, and
// the waker's own frontier (<= t) holds the floor until this call, so the
// handoff never lets the safe time pass t unprotected. Active and absent
// lanes are unaffected — an active lane manages its own frontier — and cost
// one atomic load: every reply calls Resume.
func (g *Gate) Resume(id int, t Cycles) {
	l := g.lane(id)
	nv := enc(t)
	if l.v.Load() != laneIdle || nv == laneIdle {
		return
	}
	g.join(l, nv, true)
}

// minFrontier returns the minimum finite frontier over the active set
// (laneIdle if no lane constrains the system) and raises the cache to it.
func (g *Gate) minFrontier() uint64 {
	n := int(g.nActive.Load())
	slots := *g.active.Load() // loaded after nActive: holds slots [0, n)
	min := uint64(laneIdle)
	for i := n - 1; i >= 0; i-- {
		if v := slots[i].Load().v.Load(); v != laneAbsent && v < min {
			min = v
		}
	}
	if min == laneIdle {
		// No lane constrains the system right now. Do not advance the cache:
		// a lane joining later must still observe a fresh minimum.
		return min
	}
	// Monotone raise; a concurrent join may have lowered the cache below
	// min, in which case the join's floor wins.
	for {
		cur := g.cachedSafe.Load()
		if cur >= min || g.cachedSafe.CompareAndSwap(cur, min) {
			return min
		}
	}
}

// SafeAt reports whether every lane's frontier is at least t, i.e. whether a
// request arriving at t can be served knowing no earlier arrival will appear.
func (g *Gate) SafeAt(t Cycles) bool {
	want := enc(t)
	return g.cachedSafe.Load() >= want || g.minFrontier() >= want
}

// Subscribe registers a gated consumer's condition variable and returns its
// registration, through which the consumer publishes the arrival it blocks
// on (Waiter.Begin). A consumer subscribes once (re-subscribing the same
// cond returns the same registration) and then blocks with c.L held.
// Registration is append-only; a gate lives exactly as long as one parallel
// run, so subscriptions are never removed.
func (g *Gate) Subscribe(c *sync.Cond) *Waiter {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := *g.subs.Load()
	for _, w := range cur {
		if w.c == c {
			return w
		}
	}
	w := &Waiter{g: g, c: c}
	grown := make([]*Waiter, len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = w
	g.subs.Store(&grown)
	return w
}

// BeginWait counts the caller as a blocked gated consumer; EndWait undoes
// it. The count only lets the raise path skip reading heads while nobody
// waits: a consumer that publishes no head (Waiter.Begin does both) is never
// signalled by the gate.
func (g *Gate) BeginWait() { g.waiters.Add(1) }

// EndWait undoes BeginWait once the consumer stops waiting.
func (g *Gate) EndWait() { g.waiters.Add(-1) }

// Begin publishes that the consumer is about to block on the request
// arriving at t. The protocol (see msg.Queue.PopWaitEarliestGated) is:
// Begin, re-check SafeAt(t), then — only if still unsafe — wait on the
// subscribed cond, then End; c.L is held throughout.
//
// Begin before the re-check closes the race with a concurrent frontier
// advance as a Dekker pair on sequentially consistent atomics: the waiter
// stores its head, then reads the lanes; an advancer stores its lane, then
// reads the heads. If the advancer's read misses the head, its lane store
// precedes the waiter's re-check, which then sees it. If it sees the head
// and the move released it, its signal cannot be lost: release acquires
// c.L, which the waiter holds from the re-check until Wait parks it.
func (w *Waiter) Begin(t Cycles) {
	w.g.BeginWait()
	w.head.Store(enc(t))
}

// End clears the head published by Begin once the consumer stops waiting
// (whether it popped, re-checked successfully, or woke from the cond).
func (w *Waiter) End() {
	w.head.Store(0)
	w.g.EndWait()
}

// release signals the consumers that a lane's frontier move from old
// (finite) to nv may have released: those blocked on a head h with
// old < h <= nv — a lane already at or past h was not holding them — and
// only once the minimum frontier has reached h. The minimum is computed at
// most once, and only if some head qualifies. Acquiring the consumer's lock
// orders the signal after its park.
func (g *Gate) release(old, nv uint64) {
	if g.waiters.Load() == 0 {
		return
	}
	min := uint64(laneAbsent) // not computed yet
	for _, w := range *g.subs.Load() {
		h := w.head.Load() // 0 (no head) is <= old
		if h <= old || h > nv {
			continue
		}
		if min == laneAbsent {
			min = g.minFrontier()
		}
		if h <= min {
			w.c.L.Lock()
			w.c.Broadcast()
			w.c.L.Unlock()
		}
	}
}
