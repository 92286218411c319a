package main

import (
	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/pool"
	"cxl0/internal/workload"
)

// workloadDef is one fixed benchmark workload: a YCSB mix, the pooled
// service it runs against, a fixed op count per rep and an optional churn
// schedule. Nothing here depends on run length: Capacity in particular is
// a constant, because host cost per eviction is O(machines x locations)
// and a capacity tied to the op count would make run time quadratic.
type workloadDef struct {
	Name string
	// Why is the reason the workload exists (copied into BENCHMARK.json).
	Why  string
	Spec workload.Spec
	Pool pool.Config
	// Ops is the number of measured operations of one rep.
	Ops int
	// CrashEvery crashes and recovers the next shard in rotation every
	// CrashEvery measured ops; RebalanceEvery calls Rebalance. 0 = off.
	CrashEvery     int
	RebalanceEvery int
}

func ycsb(name string, keys int) workload.Spec {
	s, err := workload.YCSB(name)
	if err != nil {
		panic(err) // names below are constants
	}
	s.Keys = keys
	return s
}

// workloads are the benchmark's four fixed workloads. All run the Base
// hardware variant with commit batches of 16.
var workloads = []workloadDef{
	{
		Name: "update-ranged-12sh",
		Why:  "YCSB-A, 1 cluster x 12 shards, ranged commit, pipeline depth 2: the largest core.State, so core/memsim stepping is ~all host work and the kv commit pipeline ~all simulated work",
		Spec: ycsb("A", 2000),
		Pool: pool.Config{Clusters: 1, Store: kv.Config{
			Shards: 12, Strategy: kv.RangedCommit, Batch: 16, PipelineDepth: 2,
			EvictEvery: 8, Capacity: 2048, Variant: core.Base,
		}},
		Ops: 8000,
	},
	{
		Name: "read-cached-pooled",
		Why:  "YCSB-B, 4 clusters x 2 shards, 256-entry read cache + prefetch over 10000 keys: most reads bypass memsim, so kv cache/predictor and pool routing carry them; compaction runs behind",
		Spec: ycsb("B", 10000),
		Pool: pool.Config{Clusters: 4, Store: kv.Config{
			Shards: 2, Strategy: kv.RangedCommit, Batch: 16, PipelineDepth: 1,
			ReadCache: 256, Prefetch: true,
			EvictEvery: 8, Capacity: 2048, CompactAtFill: 0.85, Variant: core.Base,
		}},
		Ops: 300000,
	},
	{
		Name: "scan-flush-pooled",
		Why:  "YCSB-E, 4 clusters x 2 shards, per-op flush, no eviction: kv.Scan sort and pool fan-out/merge do the host work, core.TauSteps never runs - the bypass workload for simulator-stepping changes",
		Spec: ycsb("E", 4000),
		Pool: pool.Config{Clusters: 4, Store: kv.Config{
			Shards: 2, Strategy: kv.StoreFlush, Batch: 16,
			EvictEvery: 0, Capacity: 4096, Variant: core.Base,
		}},
		Ops: 3000,
	},
	{
		Name: "churn-group-4sh",
		Why:  "YCSB-A, 1 cluster x 4 shards, group commit (GPF), crash+recover every 1000 ops, Rebalance every 500: the only workload with recovery, compaction, migration and durability under crashes on the line",
		Spec: ycsb("A", 2000),
		Pool: pool.Config{Clusters: 1, Store: kv.Config{
			Shards: 4, Strategy: kv.GroupCommit, Batch: 16, PipelineDepth: 1,
			EvictEvery: 8, Capacity: 1024, CompactAtFill: 0.85, Variant: core.Base,
		}},
		Ops:            30000,
		CrashEvery:     1000,
		RebalanceEvery: 500,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
