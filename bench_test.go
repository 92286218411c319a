// Package cxl0bench is the top-level benchmark harness and the home of
// TestPaperClaims, which derives every result of the paper and writes
// RESULTS.md.
//
// Run the benchmarks with:
//
//	go test -bench=. -benchmem -run '^$' .
//
// Each benchmark recomputes its experiment from scratch per iteration, so
// ns/op tracks the cost of full regeneration, and the reported custom
// metrics carry the experiment's results (latencies in simulated
// nanoseconds, throughput in simulated time). The KV benchmarks assert as
// they run.
package cxl0bench

import (
	"fmt"
	"math"
	"os"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/flit"
	"cxl0/internal/flitbench"
	"cxl0/internal/kv"
	"cxl0/internal/litmus"
	"cxl0/internal/pool"
	"cxl0/internal/workload"
)

// benchStrategy measures one persistence strategy's simulated cost on one
// workload, reporting sim-ns/op (the §6.1 comparison).
func benchStrategy(b *testing.B, w flitbench.Workload, s flit.Strategy, p flitbench.Placement) {
	b.Helper()
	var last flitbench.Stats
	for i := 0; i < b.N; i++ {
		st, err := flitbench.Run(flitbench.Config{Workload: w, Strategy: s, Placement: p, Ops: 500, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	b.ReportMetric(last.SimNSPerOp, "sim-ns/op")
}

func BenchmarkFliTQueueRemote(b *testing.B) {
	for _, s := range flit.Strategies {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, flitbench.QueuePingPong, s, flitbench.Remote)
		})
	}
}

func BenchmarkFliTMapReadMostlyRemote(b *testing.B) {
	for _, s := range flit.Strategies {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, flitbench.MapReadMostly, s, flitbench.Remote)
		})
	}
}

func BenchmarkFliTMapWriteHeavyRemote(b *testing.B) {
	for _, s := range flit.Strategies {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, flitbench.MapWriteHeavy, s, flitbench.Remote)
		})
	}
}

func BenchmarkFliTQueueLocal(b *testing.B) {
	for _, s := range []flit.Strategy{flit.CXL0FliT, flit.CXL0FliTOpt, flit.MStoreAll} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, flitbench.QueuePingPong, s, flitbench.Local)
		})
	}
}

// benchKVWorkload runs one KV-service workload configuration per
// iteration and reports its simulated throughput and tail latency.
func benchKVWorkload(b *testing.B, name string, strat kv.Strategy, shards int) {
	b.Helper()
	spec, err := workload.YCSB(name)
	if err != nil {
		b.Fatal(err)
	}
	spec.Keys = 120
	var last workload.Result
	for i := 0; i < b.N; i++ {
		last, err = workload.Run(workload.Options{
			Spec:       spec,
			Store:      kv.Config{Shards: shards, Strategy: strat, Batch: 16, EvictEvery: 8},
			Ops:        400,
			CrashEvery: 150,
			Seed:       1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.ThroughputOpsPerSec, "sim-ops/sec")
	b.ReportMetric(last.P99NS, "p99-sim-ns")
	if last.Recoveries == 0 {
		b.Fatal("crash churn produced no recoveries")
	}
}

// BenchmarkKVWorkloadA measures the update-heavy YCSB-A mix across
// persistence strategies on the sharded KV service.
func BenchmarkKVWorkloadA(b *testing.B) {
	for _, s := range kv.Strategies {
		b.Run(s.String(), func(b *testing.B) {
			benchKVWorkload(b, "A", s, 2)
		})
	}
}

// BenchmarkKVWorkloadE measures the scan-heavy YCSB-E mix.
func BenchmarkKVWorkloadE(b *testing.B) {
	for _, s := range []kv.Strategy{kv.MStoreEach, kv.GPFEach, kv.GroupCommit} {
		b.Run(s.String(), func(b *testing.B) {
			benchKVWorkload(b, "E", s, 2)
		})
	}
}

// BenchmarkKVScanLimit tracks the host cost of a limit-16 scan at two
// shard sizes and two shard counts, open at the top, and of one whose hi
// falls inside the shards' runs. A scan merges the shards' ordered runs
// and stops at the limit, so ns/op must follow neither keys-per-shard nor,
// beyond one seek per shard, the shard count; every scan must come back
// full.
func BenchmarkKVScanLimit(b *testing.B) {
	const limit = 16
	for _, shape := range []struct {
		name         string
		shards, keys int
		// bounded scans [lo, lo+limit) instead of [lo, MaxInt64).
		bounded bool
	}{
		{"keys-per-shard=1024", 2, 2 << 10, false},
		{"keys-per-shard=65536", 2, 2 << 16, false},
		{"shards=12", 12, 4096, false},
		{"hi-in-range", 2, 2 << 10, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			keys := shape.keys
			// Keys hash to shards, so a shard's share is only near keys/shards.
			st, err := kv.Open(kv.Config{Shards: shape.shards, Capacity: 2 * keys / shape.shards, Strategy: kv.MStoreEach, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < keys; k++ {
				if _, err := st.Put(core.Val(k), core.Val(k+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := core.Val(i * 7919 % (keys - limit))
				hi := core.Val(math.MaxInt64)
				if shape.bounded {
					hi = lo + limit
				}
				pairs, err := st.Scan(lo, hi, limit)
				if err != nil || len(pairs) != limit || pairs[0].Key != lo {
					b.Fatalf("scan from %d: %d pairs, %v; want %d from a dense keyspace", lo, len(pairs), err, limit)
				}
			}
		})
	}
}

// BenchmarkKVPooledScan tracks the host cost of a limit-16 pooled scan —
// one merge over every cluster's shard runs, then each cluster's reads of
// its picks — at 1, 4 and 8 clusters of 2 shards over a dense keyspace,
// and asserts every scan's pairs as it runs.
func BenchmarkKVPooledScan(b *testing.B) {
	const limit, keys = 16, 4096
	for _, clusters := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			r, err := pool.Open(pool.Config{Clusters: clusters, Store: kv.Config{Shards: 2, Capacity: 2 * keys / clusters, Strategy: kv.StoreFlush, Seed: 1}})
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < keys; k++ {
				if _, err := r.Put(core.Val(k), core.Val(k+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := core.Val(i * 7919 % (keys - limit))
				pairs, err := r.Scan(lo, math.MaxInt64, limit)
				if err != nil || len(pairs) != limit {
					b.Fatalf("scan from %d: %d pairs, %v; want %d", lo, len(pairs), err, limit)
				}
				for j, p := range pairs {
					if p.Key != lo+core.Val(j) || p.Val != p.Key+1 {
						b.Fatalf("scan from %d: pair %d is %+v, want key %d = %d", lo, j, p, lo+core.Val(j), lo+core.Val(j)+1)
					}
				}
			}
		})
	}
}

// BenchmarkKVCachedRead tracks the host cost of one operation of the
// repository benchmark's read-cached-pooled workload: YCSB-B over 10000
// keys on 4 clusters of 2 shards, ranged commit, a 256-entry read cache
// with the prefetcher. Most reads are served from the cache, so ns/op is
// mostly kv's per-key lookups (view, cache, predictor) and pool routing.
// The cache is warmed before the clock starts, and the warm-up must have
// served hits.
func BenchmarkKVCachedRead(b *testing.B) {
	spec, err := workload.YCSB("B")
	if err != nil {
		b.Fatal(err)
	}
	spec.Keys = 10000
	r, err := pool.Open(pool.Config{Clusters: 4, Store: kv.Config{
		Shards: 2, Strategy: kv.RangedCommit, Batch: 16, PipelineDepth: 1,
		ReadCache: 256, Prefetch: true,
		EvictEvery: 8, Capacity: 2048, CompactAtFill: 0.85, Seed: 1,
	}})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < spec.Keys; k++ {
		if _, err := r.Put(core.Val(k), core.Val(k+1)); err != nil {
			b.Fatal(err)
		}
	}
	gen := workload.NewGenerator(spec, 1)
	for range 2000 {
		if err := gen.Next().Issue(r); err != nil {
			b.Fatal(err)
		}
	}
	if m := r.Metrics(); m.CacheHits == 0 {
		b.Fatalf("2000 warm-up operations served no read from the cache: %d misses", m.CacheMisses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.Next().Issue(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVGroupCommit verifies and tracks the headline batching claim:
// group commit beats per-op GPF on simulated throughput.
func BenchmarkKVGroupCommit(b *testing.B) {
	spec, err := workload.YCSB("A")
	if err != nil {
		b.Fatal(err)
	}
	spec.Keys = 120
	run := func(s kv.Strategy) workload.Result {
		res, err := workload.Run(workload.Options{
			Spec:  spec,
			Store: kv.Config{Shards: 2, Strategy: s, Batch: 16},
			Ops:   400,
			Seed:  2,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = run(kv.GroupCommit).ThroughputOpsPerSec / run(kv.GPFEach).ThroughputOpsPerSec
	}
	b.ReportMetric(speedup, "group-vs-gpf-speedup")
	if speedup <= 1 {
		b.Fatalf("group commit speedup %.2fx <= 1x over per-op GPF", speedup)
	}
}

// BenchmarkKVPooledClusters verifies and tracks the multi-cluster
// pooling claim: the same traffic over 4 pooled clusters (behind the
// pool.Router, driven through the kv.DB interface) beats the 1-cluster
// makespan.
func BenchmarkKVPooledClusters(b *testing.B) {
	spec, err := workload.YCSB("A")
	if err != nil {
		b.Fatal(err)
	}
	spec.Keys = 120
	run := func(clusters int) workload.Result {
		res, err := workload.Run(workload.Options{
			Spec:     spec,
			Store:    kv.Config{Shards: 2, Strategy: kv.RangedCommit, Batch: 16},
			Clusters: clusters,
			Ops:      400,
			Seed:     5,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = run(4).ThroughputOpsPerSec / run(1).ThroughputOpsPerSec
	}
	b.ReportMetric(speedup, "pooled-4cl-speedup")
	if speedup <= 1 {
		b.Fatalf("4-cluster pool speedup %.2fx <= 1x over one cluster", speedup)
	}
}

// BenchmarkKVRecovery tracks shard crash-recovery time on the simulated
// clock.
func BenchmarkKVRecovery(b *testing.B) {
	spec, err := workload.YCSB("B")
	if err != nil {
		b.Fatal(err)
	}
	spec.Keys = 200
	var last workload.Result
	for i := 0; i < b.N; i++ {
		last, err = workload.Run(workload.Options{
			Spec:       spec,
			Store:      kv.Config{Shards: 2, Strategy: kv.GroupCommit, Batch: 16, EvictEvery: 6},
			Ops:        600,
			CrashEvery: 200,
			Seed:       3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(last.Recoveries), "recoveries")
	b.ReportMetric(last.RecoveryMeanNS, "recovery-mean-sim-ns")
	b.ReportMetric(last.RecoveryMaxNS, "recovery-max-sim-ns")
	if last.Recoveries == 0 || last.RecoveryMeanNS <= 0 {
		b.Fatal("no recovery times recorded")
	}
}

// BenchmarkModelStep measures raw LTS stepping (Apply + τ enumeration), the
// substrate cost under everything else.
func BenchmarkModelStep(b *testing.B) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	x := topo.AddLoc("x", m0)
	topo.AddLoc("y", m1)
	s := core.NewState(topo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := core.Apply(s, core.LStoreL(m1, x, core.Val(i%7)), core.Base)
		s = out[0]
		if steps := core.TauSteps(s); len(steps) > 0 {
			s = core.ApplyTau(s, steps[0])
		}
	}
}

// BenchmarkTraceCheck measures litmus trace admissibility checking: one
// op is litmus.Check over figure3.litmus, Figure 3's nine traces under
// each variant.
func BenchmarkTraceCheck(b *testing.B) {
	raw, err := os.ReadFile("internal/litmus/testdata/figure3.litmus")
	if err != nil {
		b.Fatal(err)
	}
	script, err := litmus.ParseScript(string(raw))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		litmus.Check(script)
	}
}

// BenchmarkAblationEviction measures the eviction-pressure sensitivity of
// the sound strategies (flitbench.EvictionAblation).
func BenchmarkAblationEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := flitbench.EvictionAblation(
			[]flit.Strategy{flit.CXL0FliT, flit.MStoreAll}, []int{0, 8, 1}, 300)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.EvictEvery == 1 && p.Strategy == flit.CXL0FliT {
				b.ReportMetric(p.SimNSPerOp, "flit-evict1-sim-ns/op")
			}
		}
	}
}

// BenchmarkAblationPlacementMix measures the §6.1 local/remote crossover.
func BenchmarkAblationPlacementMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := flitbench.PlacementMixAblation(
			[]flit.Strategy{flit.CXL0FliT, flit.CXL0FliTOpt}, []int{0, 100}, 500)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.LocalPercent == 100 && p.Strategy == flit.CXL0FliTOpt {
				b.ReportMetric(p.SimNSPerOp, "opt-local-sim-ns/op")
			}
		}
	}
}

// BenchmarkAblationCounterTable measures FliT counter-table false sharing.
func BenchmarkAblationCounterTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := flitbench.CounterTableAblation([]int{1, 128}, 128)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[0].HelpedLoads), "helped-loads-size1")
		b.ReportMetric(float64(points[1].HelpedLoads), "helped-loads-size128")
	}
}
