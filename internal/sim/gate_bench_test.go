package sim

import (
	"fmt"
	"sync"
	"testing"
)

// gateShapes are the lane shapes the gate benchmarks run at: a small and a
// large fleet with every lane active, and meta-storm's shape — 32 running
// lanes among 640 endpoints, the rest exited (idle) or never joined.
var gateShapes = []struct{ active, slots int }{{8, 8}, {32, 32}, {32, 640}}

// benchGate returns a gate with shape.slots lanes, of which every
// (slots/active)-th is active at frontier 1; half of the others are idle
// and half were never joined. It returns the active lane ids.
func benchGate(active, slots int) (*Gate, []int) {
	g := NewGate()
	stride := slots / active
	var ids []int
	for id := 0; id < slots; id++ {
		switch {
		case id%stride == 0 && len(ids) < active:
			g.Bump(id, 1)
			ids = append(ids, id)
		case id%2 == 0:
			g.Bump(id, 1)
			g.Idle(id)
		}
	}
	return g, ids
}

// runShapes runs fn at every shape. A nonzero head subscribes one consumer
// per active lane (one per server, as on meta-storm), each blocked on head.
func runShapes(b *testing.B, head Cycles, fn func(b *testing.B, g *Gate, ids []int)) {
	for _, s := range gateShapes {
		b.Run(fmt.Sprintf("active=%d/slots=%d", s.active, s.slots), func(b *testing.B) {
			g, ids := benchGate(s.active, s.slots)
			for i := 0; head != 0 && i < len(ids); i++ {
				g.Subscribe(sync.NewCond(&sync.Mutex{})).Begin(head)
			}
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, g, ids)
		})
	}
}

// BenchmarkGateBump: the per-send cost — raise one finite frontier,
// round-robin over the active lanes, while every consumer is blocked on a
// head no raise reaches, so each raise reads every head and signals none.
func BenchmarkGateBump(b *testing.B) {
	runShapes(b, 1<<62, func(b *testing.B, g *Gate, ids []int) {
		t := Cycles(2)
		for i := 0; i < b.N; i++ {
			t++
			g.Bump(ids[i%len(ids)], t)
		}
	})
}

var safeSink bool

// BenchmarkGateSafeAt: SafeAt above the minimum frontier, so the cache
// misses and the active set is scanned, as on a gated pop that must wait.
func BenchmarkGateSafeAt(b *testing.B) {
	runShapes(b, 0, func(b *testing.B, g *Gate, ids []int) {
		for i := 0; i < b.N; i++ {
			safeSink = g.SafeAt(2)
		}
	})
}

// BenchmarkGateWake: park and resume one active lane while every consumer
// is blocked on a head the park qualifies but the other lanes still hold:
// each park reads every head and computes the minimum once, signalling
// none — the common case of the old broadcast, which woke every consumer.
func BenchmarkGateWake(b *testing.B) {
	runShapes(b, 2, func(b *testing.B, g *Gate, ids []int) {
		for i := 0; i < b.N; i++ {
			id := ids[i%len(ids)]
			g.Idle(id)
			g.Resume(id, 1)
		}
	})
}
