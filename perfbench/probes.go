package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/table"
)

// probeReps is how many timed batches each probe runs; it reports the
// median batch's ns/op and allocs/op.
const probeReps = 5

// probe times n calls of fn per batch.
func probe(m metrics, name string, n int, fn func(i int)) {
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < probeReps; rep++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	m.set(name+"_ns", median(ns), "ns")
	m.set(name+"_allocs", median(allocs), "allocs/op")
}

// probes times calls into single layers' public functions, outside any
// workload: the sim.Gate operations the parallel engine pays per message,
// the sharded tables at meta-storm's namespace size, the message layer, and
// the server's stat path.
func probes(m metrics) error {
	for _, lanes := range []int{8, 32} {
		gateProbes(m, lanes)
	}
	tableProbes(m, 256<<10)
	if err := msgProbes(m); err != nil {
		return err
	}
	return serverProbe(m)
}

func gateProbes(m metrics, lanes int) {
	suffix := fmt.Sprintf("_l%d", lanes)
	g := sim.NewGate()
	for l := 0; l < lanes; l++ {
		g.Bump(l, 1)
	}
	// Bump: raise one finite frontier (the per-send cost), round-robin
	// over the lanes.
	var t sim.Cycles = 2
	probe(m, "sim.gate_bump"+suffix, 400000, func(i int) {
		t++
		g.Bump(i%lanes, t)
	})
	// SafeAt above the minimum frontier: the cache misses and every lane
	// is scanned, as on a gated pop that must wait.
	probe(m, "sim.gate_safe_at"+suffix, 400000, func(int) {
		g.SafeAt(t + 1)
	})
	// Idle then Resume of one lane with one consumer blocked, so each Idle
	// broadcasts to every subscribed queue (one per lane).
	for l := 0; l < lanes; l++ {
		g.Subscribe(sync.NewCond(&sync.Mutex{}))
	}
	g.BeginWait()
	probe(m, "sim.gate_wake"+suffix, 100000, func(i int) {
		l := i % lanes
		g.Idle(l)
		g.Resume(l, t)
	})
	g.EndWait()
}

func tableProbes(m metrics, size int) {
	tab := table.NewSharded[uint64, uint64](table.HashU64, size)
	for i := 0; i < size; i++ {
		tab.Put(uint64(i)*0x9E3779B97F4A7C15, uint64(i))
	}
	// A fixed odd stride visits keys in a scattered order.
	key := func(i int) uint64 { return uint64((i*40503)%size) * 0x9E3779B97F4A7C15 }
	probe(m, "table.get", 400000, func(i int) { tab.Get(key(i)) })
	probe(m, "table.put", 400000, func(i int) { tab.Put(key(i), uint64(i)) })
}

func msgProbes(m metrics) error {
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	net := msg.NewNetwork(msg.WrapMachine(machine))
	cli, srv := net.NewEndpoint(0), net.NewEndpoint(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			env, ok := srv.Inbox.PopWait()
			if !ok {
				return
			}
			size := len(env.Payload)
			srv.PutBuf(env.Payload)
			net.Reply(srv, env, env.Kind, srv.GetBuf(size)[:size], env.ArriveAt)
		}
	}()
	var rpcErr error
	echo := func(int) {
		env, err := net.RPC(cli, srv.ID, 1, cli.GetBuf(64)[:64], 0)
		if err != nil {
			rpcErr = err
			return
		}
		cli.PutBuf(env.Payload)
	}
	for i := 0; i < 64; i++ {
		echo(i)
	}
	probe(m, "msg.rpc_echo", 20000, echo)
	srv.Inbox.Close()
	<-done
	if rpcErr != nil {
		return fmt.Errorf("msg probe: echo rpc: %w", rpcErr)
	}

	// A server inbox at a steady depth of 1024: push one, pop the earliest.
	q := msg.NewQueue()
	r := uint64(1)
	next := func() sim.Cycles {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return sim.Cycles(r % 100000)
	}
	for i := 0; i < 1024; i++ {
		q.Push(msg.Envelope{ArriveAt: next()})
	}
	probe(m, "msg.queue_pop", 400000, func(int) {
		q.Push(msg.Envelope{ArriveAt: next()})
		q.PopWaitEarliest()
	})
	return nil
}

// serverProbe times a stat round trip through a real file server: request
// marshal, network, dispatch, response decode.
func serverProbe(m metrics) error {
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	net := msg.NewNetwork(msg.WrapMachine(machine))
	dram := ncc.NewDRAM(64, 512)
	registry := server.NewClientRegistry()
	srv := server.New(server.Config{
		ID: 0, Core: 0, NumServers: 1, Machine: machine, Network: net,
		DRAM: dram, Partition: ncc.PartitionDRAM(dram, 1)[0], Registry: registry, CoLocated: true,
	})
	srv.Start()
	defer srv.Stop()
	ep := net.NewEndpoint(1)
	registry.Register(7, ep.ID)
	var callErr error
	call := func(req *proto.Request, resp *proto.Response) {
		env, err := net.RPC(ep, srv.EndpointID(), proto.KindRequest, req.AppendTo(ep.GetBuf(req.SizeHint())), 0)
		if err == nil {
			err = proto.UnmarshalResponseInto(resp, env.Payload)
			ep.PutBuf(env.Payload)
		}
		if err == nil && resp.Err != fsapi.OK {
			err = resp.Err
		}
		if err != nil {
			callErr = err
		}
	}
	created := &proto.Response{}
	call(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "hot",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, ClientID: 7,
	}, created)
	req := &proto.Request{Op: proto.OpStat, Target: created.Ino, ClientID: 7}
	resp := &proto.Response{}
	for i := 0; i < 64; i++ {
		call(req, resp)
	}
	probe(m, "server.stat", 20000, func(int) { call(req, resp) })
	if callErr != nil {
		return fmt.Errorf("server probe: %w", callErr)
	}
	return nil
}
