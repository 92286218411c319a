package main

import (
	"math"
	"math/rand"
	"time"

	"cxl0/internal/core"
	"cxl0/internal/latency"
	"cxl0/internal/memsim"
	"cxl0/internal/pool"
	"cxl0/internal/workload"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// perCall calls f in batches until minProbe has passed and returns host
// nanoseconds per call.
func perCall(minProbe time.Duration, batch int, f func()) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < minProbe {
		for j := 0; j < batch; j++ {
			f()
		}
		calls += batch
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// runProbes times direct calls into the public functions of the layers
// beneath kv, on state shaped like the workload's: a snapshot of the
// traced rep's cluster 0 for core, a fresh cluster of the same shape
// issuing the measured primitive mix for memsim. The spans around DB
// calls measure; these numbers estimate what is nested inside them.
func runProbes(w workloadDef, rt *pool.Router, det map[string]float64, minProbe time.Duration) map[string]float64 {
	out := map[string]float64{}
	cluster := rt.Cluster(0).Cluster()
	topo := cluster.Topology()
	variant := w.Pool.Store.Variant

	// core, on a private copy of the live state.
	snap := cluster.Snapshot()
	out["core.state_cells"] = float64(topo.NumMachines() * topo.NumLocs())
	out["core.tausteps_enabled"] = float64(len(core.TauSteps(snap)))
	out["core.tausteps_host_ns"] = perCall(minProbe, 1, func() { sink += float64(len(core.TauSteps(snap))) })
	// One pass stores to every line from the front end (machine 0 owns
	// none), the next propagates each to its owner's cache, so both
	// transitions are always enabled.
	var applyNS, tauNS time.Duration
	passes := 0
	for applyNS < minProbe || tauNS < minProbe {
		t0 := time.Now()
		for x := 0; x < topo.NumLocs(); x++ {
			core.ApplyInPlace(snap, core.LStoreL(0, core.LocID(x), 1), variant)
		}
		t1 := time.Now()
		for x := 0; x < topo.NumLocs(); x++ {
			core.ApplyTauInPlace(snap, core.TauStep{From: 0, Loc: core.LocID(x)})
		}
		applyNS += t1.Sub(t0)
		tauNS += time.Since(t1)
		passes++
	}
	calls := float64(passes * topo.NumLocs())
	out["core.apply_host_ns"] = float64(applyNS.Nanoseconds()) / calls
	out["core.applytau_host_ns"] = float64(tauNS.Nanoseconds()) / calls

	// memsim.
	out["memsim.evict_host_ns"] = perCall(minProbe, 1, func() { cluster.Churn(1) })
	out["memsim.prim_host_ns"] = probePrimitives(w, topo, det, minProbe)

	// latency.
	model := latency.NewModel()
	ops := []core.Op{core.OpLoad, core.OpLStore, core.OpRStore, core.OpMStore, core.OpLFlush, core.OpRFlush, core.OpGPF}
	out["latency.cost_host_ns"] = perCall(minProbe, len(ops), func() {
		for i, op := range ops {
			sink += model.CXL0CostCached(op, i%2 == 0, i%3 == 0)
		}
	}) / float64(len(ops))
	for _, r := range latency.Figure5Ratios(model) {
		out["latency.fig5_max_rel_err"] = math.Max(out["latency.fig5_max_rel_err"], math.Abs(r.Value/r.PaperSays-1))
	}

	// pool and workload.
	key := core.Val(0)
	out["pool.route_host_ns"] = perCall(minProbe, 1024, func() {
		sink += float64(rt.ClusterOf(key))
		key++
	})
	gen := workload.NewGenerator(w.Spec, 1)
	out["workload.gen_host_ns"] = perCall(minProbe, 1024, func() { sink += float64(gen.Next().Key) })
	return out
}

// probePrimitives issues the workload's measured primitive mix against a
// fresh cluster of the same machines, heaps, eviction rate and latency
// model, and returns host nanoseconds per primitive with background
// eviction amortised in.
func probePrimitives(w workloadDef, topo *core.Topology, det map[string]float64, minProbe time.Duration) float64 {
	machines := []memsim.MachineConfig{{Name: "front", Mem: core.NonVolatile}}
	heap := topo.NumLocs() / (topo.NumMachines() - 1)
	for m := 1; m < topo.NumMachines(); m++ {
		machines = append(machines, memsim.MachineConfig{Name: topo.MachineName(core.MachineID(m)), Mem: core.NonVolatile, Heap: heap})
	}
	c := memsim.NewCluster(machines, memsim.Config{
		Variant: w.Pool.Store.Variant, EvictEvery: w.Pool.Store.EvictEvery, Seed: 1, Latency: latency.NewModel(),
	})
	th, err := c.NewThread(0)
	if err != nil {
		panic(err) // a fresh cluster has every machine up
	}
	mix := []struct {
		op core.Op
		n  float64
	}{
		{core.OpLoad, det["memsim.n_load"]},
		{core.OpLStore, det["memsim.n_lstore"]},
		{core.OpRStore, det["memsim.n_rstore"]},
		{core.OpMStore, det["memsim.n_mstore"]},
		{core.OpLFlush, det["memsim.n_lflush"]},
		{core.OpRFlush, det["memsim.n_rflush"]},
		{core.OpRFlushRange, det["memsim.n_rflushrange"]},
		{core.OpGPF, det["memsim.n_gpf"]},
	}
	total := 0.0
	for _, p := range mix {
		total += p.n
	}
	if total == 0 {
		return 0
	}
	// Stores walk the heap, single-line flushes follow the last store, a
	// ranged flush covers every store since the previous one (as a commit
	// covers its batch and a compaction its snapshot), loads are random.
	rng := rand.New(rand.NewSource(1))
	nLocs := core.LocID(topo.NumLocs())
	next, unflushed := core.LocID(0), core.LocID(0)
	issue := func(op core.Op) error {
		last := (next + nLocs - 1) % nLocs
		switch op {
		case core.OpLoad:
			_, err := th.Load(core.LocID(rng.Intn(int(nLocs))))
			return err
		case core.OpLStore, core.OpRStore, core.OpMStore:
			x := next
			next = (next + 1) % nLocs
			if op == core.OpLStore {
				return th.LStore(x, 1)
			}
			if op == core.OpRStore {
				return th.RStore(x, 1)
			}
			return th.MStore(x, 1)
		case core.OpLFlush:
			return th.LFlush(last)
		case core.OpRFlush:
			return th.RFlush(last)
		case core.OpRFlushRange:
			base, end := unflushed, next
			if end <= base {
				base, end = last, last+1 // nothing new, or the walk wrapped
			}
			unflushed = next
			return th.RFlushRange(base, int(end-base))
		case core.OpGPF:
			return th.GPF()
		default:
			return nil // the KV service issues no RMW primitives
		}
	}
	// Each primitive is spread evenly over a cycle of slots, in
	// proportion to its measured count.
	const slots = 4096
	issued := 0
	start := time.Now()
	for k := 0; k%64 != 0 || time.Since(start) < minProbe; k++ {
		for _, p := range mix {
			at := float64(k%slots) * p.n / total
			if math.Floor(at+p.n/total) == math.Floor(at) {
				continue
			}
			if err := issue(p.op); err != nil {
				panic(err) // no crash, no partition: every primitive succeeds
			}
			issued++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(issued)
}
