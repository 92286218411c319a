package flitbench

import (
	"cxl0/internal/core"
	"cxl0/internal/ds"
	"cxl0/internal/flit"
	"cxl0/internal/latency"
	"cxl0/internal/memsim"
)

// Ablation studies for the design choices package flit's comment explains:
// how sensitive each persistence strategy is to cache-replacement pressure,
// where the owner-local optimisation starts to pay as data placement
// shifts, and how the FliT counter-table size trades false sharing against
// footprint.

// EvictionPoint is one cell of the eviction-pressure ablation.
type EvictionPoint struct {
	EvictEvery int // one random eviction per N primitives (0 = off)
	Strategy   flit.Strategy
	SimNSPerOp float64
}

// EvictionAblation measures the queue workload under increasing
// cache-replacement pressure. Strategies that keep data cached between the
// store and the flush (the FliT family) feel eviction more than
// cache-bypassing MStore.
func EvictionAblation(strategies []flit.Strategy, rates []int, ops int) ([]EvictionPoint, error) {
	var out []EvictionPoint
	for _, rate := range rates {
		for _, s := range strategies {
			st, err := run(Config{Workload: QueuePingPong, Strategy: s, Placement: Remote, Ops: ops, Seed: 1}, rate)
			if err != nil {
				return nil, err
			}
			out = append(out, EvictionPoint{EvictEvery: rate, Strategy: s, SimNSPerOp: st.SimNSPerOp})
		}
	}
	return out, nil
}

// MixPoint is one cell of the placement-mix ablation.
type MixPoint struct {
	LocalPercent int
	Strategy     flit.Strategy
	SimNSPerOp   float64
}

// PlacementMixAblation sweeps the fraction of operations that hit
// owner-local data (two registers: one local, one remote) and reports the
// per-strategy cost curve — where the §6.1 owner-local optimisation starts
// to separate from plain Algorithm 2.
func PlacementMixAblation(strategies []flit.Strategy, percents []int, ops int) ([]MixPoint, error) {
	var out []MixPoint
	for _, pct := range percents {
		for _, s := range strategies {
			cost, err := runMix(s, pct, ops)
			if err != nil {
				return nil, err
			}
			out = append(out, MixPoint{LocalPercent: pct, Strategy: s, SimNSPerOp: cost})
		}
	}
	return out, nil
}

func runMix(s flit.Strategy, localPct, ops int) (float64, error) {
	cluster := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "worker", Mem: core.NonVolatile, Heap: 1024},
		{Name: "memhost", Mem: core.NonVolatile, Heap: 1024},
	}, memsim.Config{Latency: latency.NewModel(), EvictEvery: 64, Seed: 1})
	th, err := cluster.NewThread(0)
	if err != nil {
		return 0, err
	}
	se := flit.NewSession(s, th)
	localHeap, err := flit.NewHeap(cluster, 0)
	if err != nil {
		return 0, err
	}
	remoteHeap, err := flit.NewHeap(cluster, 1)
	if err != nil {
		return 0, err
	}
	localReg, err := ds.NewRegister(localHeap)
	if err != nil {
		return 0, err
	}
	remoteReg, err := ds.NewRegister(remoteHeap)
	if err != nil {
		return 0, err
	}

	seed := uint64(99)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	start := cluster.NowNS()
	for i := 0; i < ops; i++ {
		reg := remoteReg
		if next(100) < localPct {
			reg = localReg
		}
		if next(2) == 0 {
			if err := reg.Write(se, core.Val(1+next(50))); err != nil {
				return 0, err
			}
		} else {
			if _, err := reg.Read(se); err != nil {
				return 0, err
			}
		}
	}
	return (cluster.NowNS() - start) / float64(ops), nil
}

// TablePoint is one cell of the counter-table ablation.
type TablePoint struct {
	TableSize  int
	SimNSPerOp float64
	// HelpedLoads counts reads that observed a positive (possibly aliased)
	// counter and paid a helping flush.
	HelpedLoads int
}

// CounterTableAblation measures false sharing in the hashed FliT counter
// table: a writer keeps one owner-local variable mid-store (counter
// raised) while a reader reads many unrelated variables. With a tiny table
// the reader's variables alias the raised counter and every read pays a
// spurious helping flush; a larger table makes aliasing vanish.
func CounterTableAblation(sizes []int, readsPerSize int) ([]TablePoint, error) {
	var out []TablePoint
	for _, size := range sizes {
		cluster := memsim.NewCluster([]memsim.MachineConfig{
			{Name: "owner", Mem: core.NonVolatile, Heap: 4096},
			{Name: "reader", Mem: core.NonVolatile, Heap: 16},
		}, memsim.Config{Latency: latency.NewModel(), Seed: 1})
		ownerTh, err := cluster.NewThread(0)
		if err != nil {
			return nil, err
		}
		readerTh, err := cluster.NewThread(1)
		if err != nil {
			return nil, err
		}
		heap, err := flit.NewHeapSized(cluster, 0, size)
		if err != nil {
			return nil, err
		}
		writer := flit.NewSession(flit.CXL0FliTOpt, ownerTh)
		reader := flit.NewSession(flit.CXL0FliTOpt, readerTh)

		hot, err := heap.AllocVar()
		if err != nil {
			return nil, err
		}
		vars, err := heap.AllocVars(64)
		if err != nil {
			return nil, err
		}
		// Warm the reader's view of every variable.
		for _, v := range vars {
			if _, err := reader.Load(v); err != nil {
				return nil, err
			}
		}
		// The writer parks mid-store on the hot variable: counter raised.
		if err := writer.StoreBegin(hot, 1); err != nil {
			return nil, err
		}

		helped := 0
		start := cluster.NowNS()
		for i := 0; i < readsPerSize; i++ {
			v := vars[i%len(vars)]
			before := cluster.NowNS()
			if _, err := reader.Load(v); err != nil {
				return nil, err
			}
			// A helping flush costs at least a memory round trip; plain
			// cached reads cost a few ns.
			if cluster.NowNS()-before > 100 {
				helped++
			}
		}
		total := cluster.NowNS() - start
		if err := writer.StoreFinish(hot); err != nil {
			return nil, err
		}
		out = append(out, TablePoint{
			TableSize:   size,
			SimNSPerOp:  total / float64(readsPerSize),
			HelpedLoads: helped,
		})
	}
	return out, nil
}
