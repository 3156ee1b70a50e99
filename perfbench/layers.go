package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"bsd6"
)

// counters is every cumulative count the per-layer metrics difference.
type counters struct {
	snap        [2]map[string]map[string]uint64 // cli, srv
	netisrDrops uint64
	frames      uint64 // frames sent by both interfaces
	mem         runtime.MemStats
	sched       []uint64 // /sched/latencies:seconds bucket counts
	schedBounds []float64
}

func snapMaps(s bsd6.Snapshot) map[string]map[string]uint64 {
	return map[string]map[string]uint64{"ip6": s.IP6, "ip4": s.IP4, "tcp": s.TCP,
		"ipsec": s.IPsec, "key": s.Key, "reasons": s.Reasons}
}

func takeCounters(b *bed) *counters {
	c := &counters{}
	for i, s := range [2]*bsd6.Stack{b.cli, b.srv} {
		snap := s.Snapshot()
		c.snap[i] = snapMaps(snap)
		c.netisrDrops += snap.Netisr.Drops
	}
	c.frames = b.cIf.Stats().OutPackets + b.sIf.Stats().OutPackets
	runtime.ReadMemStats(&c.mem)
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		c.sched = append([]uint64(nil), h.Counts...)
		c.schedBounds = h.Buckets
	}
	return c
}

// delta sums the named counters of one snapshot block over both
// stacks, from a to z.
func delta(a, z *counters, block string, names ...string) float64 {
	var d float64
	for i := range z.snap {
		for _, n := range names {
			d += float64(z.snap[i][block][n]) - float64(a.snap[i][block][n])
		}
	}
	return d
}

// schedP99 is the 99th percentile of goroutine scheduling latency
// between a and z, in µs, at the runtime histogram's bucket resolution.
func schedP99(a, z *counters) float64 {
	if len(a.sched) != len(z.sched) || len(z.sched) == 0 {
		return 0
	}
	var total uint64
	d := make([]uint64, len(z.sched))
	for i := range d {
		d[i] = z.sched[i] - a.sched[i]
		total += d[i]
	}
	var cum uint64
	for i, n := range d {
		cum += n
		if float64(cum) >= 0.99*float64(total) && total > 0 {
			v := z.schedBounds[i+1]
			if math.IsInf(v, 1) {
				v = z.schedBounds[i]
			}
			return v * 1e6
		}
	}
	return 0
}

// layerRun is what a traced run gathers: counter deltas over the
// untraced half, and spans, sampled gauges and a CPU profile over the
// traced half.
type layerRun struct {
	untraced, traced []window
	before, after    *counters
	queueMax         int
	mbufPeak         int64
	profile          []byte
}

func traceRun(b *bed, dur time.Duration) (*layerRun, error) {
	lr := &layerRun{}
	lr.before = takeCounters(b)
	lr.untraced = measure(b, phaseMeasure, dur/2, nil)
	lr.after = takeCounters(b)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ticks := 0
	lr.traced = measure(b, phaseTraced, dur/2, func() {
		for _, s := range [2]*bsd6.Stack{b.cli, b.srv} {
			for _, d := range s.InqDepths() {
				lr.queueMax = max(lr.queueMax, d)
			}
		}
		// A snapshot walks every association; sample the pool gauge it
		// carries less often than the queue depths.
		if ticks%20 == 0 {
			lr.mbufPeak = max(lr.mbufPeak, b.cli.Snapshot().Limits.PoolOutstanding)
		}
		ticks++
	})
	pprof.StopCPUProfile()
	lr.profile = prof.Bytes()
	return lr, nil
}

// set computes the per-layer metrics once every lane has returned, and
// writes the spans and the CPU profile under dir.
func (lr *layerRun) set(r *report, b *bed, dir string) error {
	a, z := lr.before, lr.after
	var ops float64
	for _, w := range lr.untraced {
		ops += float64(w.txns)
	}
	per := func(x float64) float64 { return ratio(x, ops) }
	spans := spanDurations(b.lanes)
	medianUS := func(n spanName) float64 { return spans[n].quantile(0.5) / 1e3 }

	r.set("core.send_us", medianUS(spSend), "us")
	r.set("core.read_wait_us", medianUS(spReadWait), "us")
	r.set("core.connect_us", medianUS(spConnect), "us")
	r.set("core.accept_us", medianUS(spAccept), "us")
	r.set("core.close_us", medianUS(spClose), "us")
	r.set("core.netisr_queue_max", float64(lr.queueMax), "count")
	r.set("core.netisr_drops", float64(z.netisrDrops-a.netisrDrops), "count")

	r.set("netif.frames_per_op", per(float64(z.frames-a.frames)), "count")

	r.set("ipv6.fastpath_ratio", ratio(delta(a, z, "ip6", "FastPathHits"),
		delta(a, z, "ip6", "FastPathHits", "PreparseRuns")), "ratio")
	r.set("ipv6.out_per_op", per(delta(a, z, "ip6", "OutRequests")), "count")
	r.set("ipv4.in_per_op", per(delta(a, z, "ip4", "InReceives")), "count")

	rcv := delta(a, z, "tcp", "RcvPack")
	snd := delta(a, z, "tcp", "SndPack")
	r.set("tcp.segs_per_op", per(rcv+snd), "count")
	r.set("tcp.pred_ratio", ratio(delta(a, z, "tcp", "PredAck", "PredDat"), rcv), "ratio")
	r.set("tcp.gro_coalesce_ratio", ratio(delta(a, z, "tcp", "GROCoalesced"), rcv), "ratio")
	r.set("tcp.gso_frames_per_super", ratio(delta(a, z, "tcp", "GSOSplits"), delta(a, z, "tcp", "GSOSegs")), "count")
	r.set("tcp.rexmit_ratio", ratio(delta(a, z, "tcp", "SndRexmit"), snd), "ratio")
	r.set("tcp.delacks_per_op", per(delta(a, z, "tcp", "DelAcks")), "count")
	r.set("tcp.time_wait", float64(z.snap[0]["tcp"]["TimeWaitCount"]+z.snap[1]["tcp"]["TimeWaitCount"]), "count")
	r.set("tcp.time_wait_overflow_per_op", per(delta(a, z, "tcp", "TimeWaitOverflow")), "count")
	r.set("tcp.conn_drops", delta(a, z, "tcp", "ConnDrops"), "count")

	r.set("ipsec.cache_hit_ratio", ratio(delta(a, z, "ipsec", "OutCacheHits"), delta(a, z, "ipsec", "OutESP")), "ratio")
	r.set("ipsec.in_fail", delta(a, z, "ipsec", "InAuthFail", "InDecryptFail", "InReplay", "InNoSA"), "count")

	pkts := delta(a, z, "ip6", "OutRequests", "InReceives")
	r.set("key.lookups_per_pkt", ratio(delta(a, z, "key", "Lookups"), pkts), "ratio")
	r.set("key.miss_ratio", ratio(delta(a, z, "key", "Misses"), delta(a, z, "key", "Lookups")), "ratio")
	r.set("key.add_us", medianUS(spKeyAdd), "us")
	r.set("key.delete_us", medianUS(spKeyDelete), "us")
	r.set("key.writer_late_ms", latency(b.lanes, kindKey, phaseMeasure, -1).quantile(0.99)/1e6, "ms")

	r.set("mbuf.outstanding_peak_B", float64(lr.mbufPeak), "B")

	r.set("runtime.allocs_per_op", per(float64(z.mem.Mallocs-a.mem.Mallocs)), "count")
	r.set("runtime.alloc_B_per_op", per(float64(z.mem.TotalAlloc-a.mem.TotalAlloc)), "B")
	r.set("runtime.gc_pause_ms", float64(z.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms")
	r.set("runtime.sched_p99_us", schedP99(a, z), "us")

	shares, samples, err := cpuShares(lr.profile)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		r.set(l+".cpu_pct", shares[l], "%")
	}
	r.set("trace.cpu_samples", float64(samples), "count")
	var nspans int
	for _, l := range b.lanes {
		nspans += l.tr.n
	}
	r.set("trace.spans", float64(nspans), "count")
	untraced := medianOf(sliceStats(b, phaseMeasure, lr.untraced), txnPerS)
	traced := medianOf(sliceStats(b, phaseTraced, lr.traced), txnPerS)
	r.note("trace.untraced_txn_per_s", untraced, "1/s")
	r.note("trace.traced_txn_per_s", traced, "1/s")
	r.set("trace.overhead_pct", 100*ratio(untraced-traced, untraced), "%")

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), lr.profile, 0o644); err != nil {
		return err
	}
	// The counters each delta above was taken from, per stack.
	snaps, err := json.MarshalIndent(map[string]any{
		"stacks": []string{"cli", "srv"},
		"before": a.snap,
		"after":  z.snap,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "counters.json"), snaps, 0o644); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, "spans.jsonl"), b.lanes)
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
