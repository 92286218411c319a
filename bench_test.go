// Package cxl0bench is the top-level benchmark harness: one benchmark per
// table and figure of the paper's evaluation, regenerating the artifact and
// reporting its headline numbers as benchmark metrics.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The benchmarks are verification harnesses as much as performance
// measurements: each one recomputes its experiment from scratch per
// iteration, so ns/op tracks the cost of full regeneration, and the
// reported custom metrics carry the experiment's results (latencies in
// simulated nanoseconds, agreement counts, throughput in simulated time).
package cxl0bench

import (
	"fmt"
	"math"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/crashtest"
	"cxl0/internal/cxlsim"
	"cxl0/internal/explore"
	"cxl0/internal/flit"
	"cxl0/internal/flitbench"
	"cxl0/internal/kv"
	"cxl0/internal/latency"
	"cxl0/internal/litmus"
	"cxl0/internal/workload"
)

// BenchmarkFigure3Litmus regenerates the Figure 3 verdicts (litmus tests
// 1–9) by exhaustive trace exploration and reports agreement with the
// paper.
func BenchmarkFigure3Litmus(b *testing.B) {
	agree := 0
	for i := 0; i < b.N; i++ {
		agree = 0
		for _, r := range litmus.RunAll(litmus.Figure3()) {
			if r.Agrees() {
				agree++
			}
		}
	}
	b.ReportMetric(float64(agree), "verdicts-agree")
	b.ReportMetric(9, "verdicts-total")
	if agree != 9 {
		b.Fatalf("only %d/9 Figure 3 verdicts agree", agree)
	}
}

// BenchmarkVariantTriples regenerates the §3.5 variant comparison table
// (tests 10–12 under CXL0, CXL0-LWB, CXL0-PSN).
func BenchmarkVariantTriples(b *testing.B) {
	agree := 0
	for i := 0; i < b.N; i++ {
		agree = 0
		for _, r := range litmus.RunAll(litmus.VariantTests()) {
			if r.Agrees() {
				agree++
			}
		}
	}
	b.ReportMetric(float64(agree), "verdicts-agree")
	b.ReportMetric(9, "verdicts-total") // 3 tests × 3 variants
	if agree != 9 {
		b.Fatalf("only %d/9 variant verdicts agree", agree)
	}
}

// BenchmarkMotivatingExample explores the §6 motivating program (the
// assert(r1==r2) anomaly and its two repairs).
func BenchmarkMotivatingExample(b *testing.B) {
	ok := true
	for i := 0; i < b.N; i++ {
		ok = !litmus.MotivatingAssertionHolds(core.OpLStore, false) &&
			litmus.MotivatingAssertionHolds(core.OpMStore, false) &&
			litmus.MotivatingAssertionHolds(core.OpLStore, true)
	}
	if !ok {
		b.Fatal("motivating-example verdicts diverged from the paper")
	}
}

// BenchmarkProposition1 re-verifies the eight reach-set inclusions of
// Proposition 1 on a fixed state family (the exhaustive check lives in the
// explore package's tests; this tracks its cost).
func BenchmarkProposition1(b *testing.B) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	x := topo.AddLoc("x", m0)
	topo.AddLoc("y", m1)
	s := core.NewState(topo)
	s.SetCache(1, x, 1)

	for i := 0; i < b.N; i++ {
		lhs := explore.ReachVia(s, core.Base, core.MStoreL(m1, x, 1))
		rhs := explore.ReachVia(s, core.Base, core.RStoreL(m1, x, 1))
		if !explore.Subset(lhs, rhs) {
			b.Fatal("Proposition 1(3) violated")
		}
	}
}

// BenchmarkTable1TxnMap regenerates Table 1 (the CXL transaction → CXL0
// primitive mapping) and reports cell agreement with the paper.
func BenchmarkTable1TxnMap(b *testing.B) {
	agree, total := 0, 0
	for i := 0; i < b.N; i++ {
		agree, total = 0, 0
		paper := cxlsim.PaperTable1()
		for _, cell := range cxlsim.GenerateTable1() {
			exp, ok := paper[cell.CellKey()]
			if !ok {
				continue
			}
			total++
			if cell.Available && fmt.Sprint(cell.Observed) == fmt.Sprint(exp) {
				agree++
			}
		}
	}
	b.ReportMetric(float64(agree), "cells-agree")
	b.ReportMetric(float64(total), "cells-total")
	if agree != total {
		b.Fatalf("Table 1: only %d/%d cells agree", agree, total)
	}
}

// BenchmarkFigure5Latency regenerates Figure 5 (median latency of every
// CXL0 primitive per access class, 1000 samples per bar) and reports the
// headline medians.
func BenchmarkFigure5Latency(b *testing.B) {
	m := latency.NewModel()
	var cells []latency.Figure5Cell
	for i := 0; i < b.N; i++ {
		cells = Figure5Once(m)
	}
	for _, c := range cells {
		if !c.Measurable {
			continue
		}
		switch {
		case c.Class == latency.HostToHM && c.Prim == cxlsim.PRead:
			b.ReportMetric(c.MedianNS, "host-local-read-ns")
		case c.Class == latency.HostToHDM && c.Prim == cxlsim.PRead:
			b.ReportMetric(c.MedianNS, "host-remote-read-ns")
		case c.Class == latency.DevToHM && c.Prim == cxlsim.PMStore:
			b.ReportMetric(c.MedianNS, "dev-mstore-hm-ns")
		}
	}
}

// Figure5Once regenerates all thirty bars once.
func Figure5Once(m *latency.Model) []latency.Figure5Cell {
	return latency.Figure5(m, 1000)
}

// BenchmarkDurableLinearizability runs one crash-injected workload +
// durable-linearizability check per iteration (the §6 experiment).
func BenchmarkDurableLinearizability(b *testing.B) {
	violations := 0
	for i := 0; i < b.N; i++ {
		r := crashtest.Run(crashtest.Options{
			Structure: crashtest.StructQueue,
			Strategy:  flit.CXL0FliT,
			Crash:     crashtest.CrashMemoryHost,
			Seed:      int64(i + 1),
		})
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		if !r.Linearizable {
			violations++
		}
	}
	b.ReportMetric(float64(violations), "violations")
	if violations != 0 {
		b.Fatalf("%d durable-linearizability violations under the sound strategy", violations)
	}
}

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
// shard sizes and two shard counts. A scan merges the shards' ordered runs
// and stops at the limit, so ns/op must follow neither keys-per-shard nor,
// beyond one seek per shard, the shard count; every scan must come back
// full.
func BenchmarkKVScanLimit(b *testing.B) {
	const limit = 16
	for _, shape := range []struct {
		name         string
		shards, keys int
	}{
		{"keys-per-shard=1024", 2, 2 << 10},
		{"keys-per-shard=65536", 2, 2 << 16},
		{"shards=12", 12, 4096},
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
				pairs, err := st.Scan(lo, math.MaxInt64, limit)
				if err != nil || len(pairs) != limit || pairs[0].Key != lo {
					b.Fatalf("scan from %d: %d pairs, %v; want %d from a dense keyspace", lo, len(pairs), err, limit)
				}
			}
		})
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

// BenchmarkTraceCheck measures litmus-style trace admissibility checking.
func BenchmarkTraceCheck(b *testing.B) {
	tests := litmus.Figure3()
	for i := 0; i < b.N; i++ {
		t := tests[i%len(tests)]
		t.Run(core.Base)
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
