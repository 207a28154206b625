package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; JSON encodes it in sorted key order.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the q-quantile of sorted (ascending, not empty) as the
// mid-quantile: the linear interpolation, over the distinct values, of
// each value's mid-distribution rank (the share below it plus half the
// share equal to it). Without ties it is the usual interpolated quantile;
// with ties, as in virtual latencies where every uncontended call of a
// kind costs the same cycles, it moves with the mix instead of sticking to
// one tied value.
func quantile(sorted []float64, q float64) float64 {
	n := float64(len(sorted))
	prevV, prevF := 0.0, -1.0
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		v, f := sorted[i], (float64(i)+float64(j-i)/2)/n
		if q <= f {
			if prevF < 0 {
				return v
			}
			return prevV + (q-prevF)/(f-prevF)*(v-prevV)
		}
		prevV, prevF = v, f
		i = j
	}
	return prevV
}

// median is the mid-quantile median of v, or 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum[T int | float64](v []T) T {
	var s T
	for _, x := range v {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is a snapshot of the deployment's cumulative layer counters.
type counters struct {
	econ                             stats.Economy
	loads                            []uint64
	walRecords, walBytes, walFlushes uint64
}

func snapshot(sys *core.System) counters {
	c := counters{econ: sys.MessageEconomy(), loads: sys.ServerLoads()}
	for _, w := range sys.WalStats() {
		c.walRecords += w.Records
		c.walBytes += w.Bytes
		c.walFlushes += w.Flushes
	}
	return c
}

// add accumulates the counters that moved from a to b.
func (c *counters) add(a, b counters) {
	d := counters{econ: b.econ.Sub(a.econ), loads: make([]uint64, len(b.loads))}
	for i := range b.loads {
		d.loads[i] = b.loads[i] - a.loads[i]
	}
	d.walRecords = b.walRecords - a.walRecords
	d.walBytes = b.walBytes - a.walBytes
	d.walFlushes = b.walFlushes - a.walFlushes
	c.addDelta(d)
}

// addDelta accumulates counter deltas.
func (c *counters) addDelta(d counters) {
	e := &c.econ
	e.Msgs += d.econ.Msgs
	e.Bytes += d.econ.Bytes
	e.ClientRPCs += d.econ.ClientRPCs
	e.BatchedOps += d.econ.BatchedOps
	e.QueueCycles += d.econ.QueueCycles
	e.WbLines += d.econ.WbLines
	e.InvLines += d.econ.InvLines
	e.SkipLines += d.econ.SkipLines
	e.ReplMsgs += d.econ.ReplMsgs
	e.ReplBytes += d.econ.ReplBytes
	if c.loads == nil {
		c.loads = make([]uint64, len(d.loads))
	}
	for i, l := range d.loads {
		c.loads[i] += l
	}
	c.walRecords += d.walRecords
	c.walBytes += d.walBytes
	c.walFlushes += d.walFlushes
}

// imbalance is the busiest server's load over the mean load.
func imbalance(loads []uint64) float64 {
	var sum, top uint64
	for _, l := range loads {
		sum += l
		top = max(top, l)
	}
	return ratio(float64(top)*float64(len(loads)), float64(sum))
}

// timed is everything measured over a run's timed rounds.
type timed struct {
	rounds   []phaseTime // per round, phases summed
	calls    []int       // calls per round
	mallocs  uint64
	layers   counters
	ckptHost []float64 // per server checkpoint, ms
	ckptVirt []float64 // per server checkpoint, µs
	spans    []span
}

// merge appends the rounds of u, another deployment's, to t.
func (t *timed) merge(u *timed) {
	t.rounds = append(t.rounds, u.rounds...)
	t.calls = append(t.calls, u.calls...)
	t.mallocs += u.mallocs
	t.layers.addDelta(u.layers)
	t.ckptHost = append(t.ckptHost, u.ckptHost...)
	t.ckptVirt = append(t.ckptVirt, u.ckptVirt...)
	t.spans = append(t.spans, u.spans...)
}

func (t *timed) totals(n int) (calls int, wall time.Duration, virtCycles float64) {
	for i := 0; i < n; i++ {
		calls += t.calls[i]
		wall += t.rounds[i].wall
		virtCycles += float64(t.rounds[i].virt)
	}
	return calls, wall, virtCycles
}

// layerMetrics derives the per-layer metrics of the untraced timed region.
func layerMetrics(m metrics, t *timed) {
	usOf := func(c float64) float64 { return c / clockHz * 1e6 }
	var virt, host [numKinds][]float64
	for i := range t.spans {
		s := &t.spans[i]
		virt[s.kind] = append(virt[s.kind], usOf(float64(s.virt())))
		host[s.kind] = append(host[s.kind], float64(s.hostEnd-s.hostStart)/1e3)
	}
	for k := opKind(0); k < numKinds; k++ {
		p := "client." + k.String()
		m.set(p+".calls", float64(len(virt[k])), "count")
		m.set(p+".virt_p50_us", median(virt[k]), "us")
		m.set(p+".host_p50_us", median(host[k]), "us")
	}
	calls, _, _ := t.totals(len(t.rounds))
	n := float64(calls)
	e := t.layers.econ
	m.set("client.rpcs_per_op", float64(e.ClientRPCs)/n, "rpcs/op")
	m.set("client.batched_share", ratio(float64(e.BatchedOps), float64(e.ClientRPCs)), "share")
	m.set("msg.msgs_per_op", float64(e.Msgs)/n, "msgs/op")
	m.set("msg.bytes_per_op", float64(e.Bytes)/n, "B/op")
	m.set("server.queue_us_per_op", usOf(float64(e.QueueCycles))/n, "us/op")
	m.set("server.imbalance", imbalance(t.layers.loads), "ratio")
	m.set("ncc.wb_lines_per_op", float64(e.WbLines)/n, "lines/op")
	m.set("ncc.inv_lines_per_op", float64(e.InvLines)/n, "lines/op")
	m.set("ncc.skip_share", ratio(float64(e.SkipLines), float64(e.SkipLines+e.InvLines)), "share")
	m.set("wal.flushes_per_kop", float64(t.layers.walFlushes)/n*1000, "flushes/kop")
	m.set("wal.bytes_per_op", float64(t.layers.walBytes)/n, "B/op")
	m.set("wal.records_per_flush", ratio(float64(t.layers.walRecords), float64(t.layers.walFlushes)), "records/flush")
	m.set("repl.msgs_per_op", float64(e.ReplMsgs)/n, "msgs/op")
	m.set("repl.bytes_per_op", float64(e.ReplBytes)/n, "B/op")
	m.set("core.checkpoint_host_ms", median(t.ckptHost), "ms")
	m.set("core.checkpoint_virt_us", median(t.ckptVirt), "us")
}

// timedMetrics derives the end-to-end metrics of an untraced run's timed
// rounds.
func timedMetrics(m metrics, t *timed) {
	calls, wall, virtCycles := t.totals(len(t.rounds))
	hz := clockHz
	lat := make([]float64, len(t.spans))
	for i := range t.spans {
		lat[i] = float64(t.spans[i].virt()) / hz * 1e6
	}
	sort.Float64s(lat)
	m.set("virt_kops_per_s", float64(calls)/(virtCycles/hz)/1e3, "kops/s")
	m.set("virt_op_p50_us", quantile(lat, 0.50), "us")
	m.set("virt_op_p99_us", quantile(lat, 0.99), "us")
	m.set("host_kops_per_s", float64(calls)/wall.Seconds()/1e3, "kops/s")
	m.set("allocs_per_op", float64(t.mallocs)/float64(calls), "allocs/op")
}

// isFinite reports whether every metric is a finite number.
func (m metrics) isFinite() bool {
	for _, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return false
		}
	}
	return true
}
