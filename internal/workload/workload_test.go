package workload

import (
	"encoding/json"
	"strings"
	"testing"

	"cxl0/internal/faults"
	"cxl0/internal/kv"
)

func TestSpecsValidate(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		spec, err := YCSB(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("workload %s: %v", name, err)
		}
	}
	if _, err := YCSB("Z"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 100
	a, b := NewGenerator(spec, 42), NewGenerator(spec, 42)
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("op %d diverged between equal seeds", i)
		}
	}
	c := NewGenerator(spec, 43)
	same := true
	for i := 0; i < 50; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorMixAndBounds(t *testing.T) {
	spec, _ := YCSB("E")
	spec.Keys = 50
	g := NewGenerator(spec, 7)
	scans, inserts := 0, 0
	for i := 0; i < 1000; i++ {
		op := g.Next()
		switch op.Kind {
		case OpScan:
			scans++
			if op.ScanLen < 1 || op.ScanLen > spec.MaxScanLen {
				t.Fatalf("scan length %d out of [1,%d]", op.ScanLen, spec.MaxScanLen)
			}
		case OpInsert:
			inserts++
			if op.Value < 1 {
				t.Fatalf("insert value %d < 1", op.Value)
			}
		default:
			t.Fatalf("workload E generated %v", op.Kind)
		}
		if op.Key < 0 {
			t.Fatalf("negative key %d", op.Key)
		}
	}
	if scans < 900 || inserts < 10 {
		t.Fatalf("mix off: %d scans, %d inserts in 1000 ops", scans, inserts)
	}
}

func TestZipfianSkew(t *testing.T) {
	spec, _ := YCSB("B")
	spec.Keys = 1000
	g := NewGenerator(spec, 3)
	hot := 0
	for i := 0; i < 2000; i++ {
		if op := g.Next(); op.Key < 10 {
			hot++
		}
	}
	if hot < 600 {
		t.Fatalf("zipfian: only %d/2000 ops hit the 10 hottest keys", hot)
	}
}

func TestRunSmoke(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 60
	res, err := Run(Options{
		Spec:       spec,
		Store:      kv.Config{Shards: 2, Strategy: kv.GroupCommit, Batch: 8, EvictEvery: 4},
		Ops:        300,
		CrashEvery: 120,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads+res.Updates+res.Inserts+res.Scans != 300 {
		t.Fatalf("op counts sum to %d, want 300", res.Reads+res.Updates+res.Inserts+res.Scans)
	}
	if res.SimNS <= 0 || res.ThroughputOpsPerSec <= 0 {
		t.Fatalf("no simulated time recorded: %+v", res)
	}
	if res.P50NS <= 0 || res.P99NS < res.P50NS || res.MaxNS < res.P99NS {
		t.Fatalf("percentiles inconsistent: p50=%.0f p99=%.0f max=%.0f", res.P50NS, res.P99NS, res.MaxNS)
	}
	if res.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2 (ops 120 and 240)", res.Recoveries)
	}
	if res.RecoveryMeanNS <= 0 {
		t.Fatal("no recovery time recorded")
	}
}

// TestRunRejectsBadOptions: Run used to substitute 1000 ops for Ops <= 0,
// so a caller asking for 0 ran 1000 ops while its own config said 0.
// Uniform crash churn and a campaign cannot share one run: both would
// drive the same engine.
func TestRunRejectsBadOptions(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 20
	store := kv.Config{Shards: 1, Strategy: kv.GroupCommit}
	for _, ops := range []int{0, -1} {
		_, err := Run(Options{Spec: spec, Store: store, Ops: ops, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "Ops must be positive") {
			t.Errorf("Ops %d: Run returned %v, want an Ops error", ops, err)
		}
	}
	_, err := Run(Options{Spec: spec, Store: store, Ops: 100, CrashEvery: 10, Campaign: new(faults.Campaign), Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "exclusive") {
		t.Errorf("CrashEvery with a Campaign: Run returned %v, want an exclusivity error", err)
	}
}

// FuzzRunCampaign drives arbitrary faults.Campaign JSON — the input
// format of a scripted fault schedule — through Run on 2 clusters × 2
// shards for 120 ops, under the strategy and pipeline depth (1 or 2) the
// selector byte picks. Any schedule either runs or fails with the
// engine's schedule error (a shard out of range, an unknown action);
// nothing panics. The seed corpus is the four ForClass schedules, which
// marshal their actions by name, plus one schedule written by hand with
// named actions and the same schedule in the older numeric form.
func FuzzRunCampaign(f *testing.F) {
	for i, class := range []string{"uniform", "correlated", "degraded", "partitioned"} {
		c, err := faults.ForClass(class, 120, 4, 30)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(5*i), blob)
	}
	f.Add(byte(3), []byte(`{"name":"named","events":[{"at":10,"action":"crash","shards":[0,3]},`+
		`{"at":20,"action":"recover","shards":[3,0]},{"at":30,"action":"degrade","shards":[1],"factor":4},`+
		`{"at":40,"action":"partition","shards":[2]},{"at":60,"action":"heal","shards":[2]},`+
		`{"at":70,"action":"degrade","shards":[1],"factor":1}]}`))
	f.Add(byte(3), []byte(`{"name":"numeric","events":[{"at":10,"action":0,"shards":[0,3]},`+
		`{"at":20,"action":1,"shards":[3,0]},{"at":30,"action":4,"shards":[1],"factor":4},`+
		`{"at":40,"action":2,"shards":[2]},{"at":60,"action":3,"shards":[2]},`+
		`{"at":70,"action":4,"shards":[1],"factor":1}]}`))
	spec, _ := YCSB("A")
	spec.Keys = 40
	f.Fuzz(func(t *testing.T, sel byte, blob []byte) {
		var c faults.Campaign
		if json.Unmarshal(blob, &c) != nil || len(c.Events) > 32 {
			t.Skip()
		}
		strat := kv.Strategies[int(sel)%len(kv.Strategies)]
		depth := 1 + int(sel)/len(kv.Strategies)%2
		_, err := Run(Options{
			Spec:     spec,
			Store:    kv.Config{Shards: 2, Strategy: strat, Batch: 4, PipelineDepth: depth},
			Clusters: 2,
			Ops:      120,
			Campaign: &c,
			Seed:     1,
		})
		if err != nil && !strings.Contains(err.Error(), " names shard ") && !strings.Contains(err.Error(), "faults: unknown action") {
			t.Fatalf("%v at depth %d: %v", strat, depth, err)
		}
	})
}

func TestRunReproducible(t *testing.T) {
	spec, _ := YCSB("B")
	spec.Keys = 40
	opts := Options{
		Spec:  spec,
		Store: kv.Config{Shards: 2, Strategy: kv.StoreFlush, EvictEvery: 3},
		Ops:   200,
		Seed:  5,
	}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same options, different results:\n%+v\n%+v", a, b)
	}
}

// TestRunRebalanced: under the zipfian update-heavy mix, enabling the
// rebalance knob must actually migrate buckets and lower the max/mean
// busy-share skew against the identical static run.
func TestRunRebalanced(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 120
	run := func(rebalanceEvery int) Result {
		res, err := Run(Options{
			Spec:           spec,
			Store:          kv.Config{Shards: 4, Strategy: kv.RangedCommit, Batch: 8},
			Ops:            1200,
			RebalanceEvery: rebalanceEvery,
			Seed:           6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(0)
	reb := run(150)
	if static.MaxMeanBusy <= 1 {
		t.Fatalf("static zipfian run reports no skew: max/mean = %.2f", static.MaxMeanBusy)
	}
	if static.Migrations != 0 || reb.RebalanceEvery != 150 {
		t.Fatalf("knob bookkeeping off: static %d migrations, rebalanced echoes %d",
			static.Migrations, reb.RebalanceEvery)
	}
	if reb.Migrations == 0 || reb.MigratedRecords == 0 {
		t.Fatalf("rebalanced run migrated nothing: %+v", reb)
	}
	if reb.MaxMeanBusy >= static.MaxMeanBusy {
		t.Fatalf("rebalancing did not reduce skew: %.2f static, %.2f rebalanced",
			static.MaxMeanBusy, reb.MaxMeanBusy)
	}
}

// TestRunPooled drives the runner through a pooled Router: the clusters
// dimension must echo into the result, crash churn must rotate across
// every cluster's shards, and the run must stay deterministic.
func TestRunPooled(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 60
	opts := Options{
		Spec:       spec,
		Store:      kv.Config{Shards: 2, Strategy: kv.RangedCommit, Batch: 8, EvictEvery: 4},
		Clusters:   2,
		Ops:        300,
		CrashEvery: 60,
		Seed:       8,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 || res.Shards != 2 {
		t.Fatalf("pool shape not echoed: clusters=%d shards=%d", res.Clusters, res.Shards)
	}
	// Crashes rotate over all 4 global shards: ops 60..240 give 4
	// recoveries, one per shard across both clusters.
	if res.Recoveries != 4 {
		t.Fatalf("recoveries = %d, want 4 across the pool", res.Recoveries)
	}
	if res.SimNS <= 0 || res.ThroughputOpsPerSec <= 0 || res.P99NS < res.P50NS {
		t.Fatalf("implausible pooled result: %+v", res)
	}
	again, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Fatalf("pooled run not reproducible:\n%+v\n%+v", res, again)
	}
}

// TestPoolingScalesThroughput is the capacity-scaling claim the pooled
// bench rows record: the same traffic over 4 pooled clusters beats one
// cluster's makespan (clusters share nothing, so they run in parallel).
func TestPoolingScalesThroughput(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 80
	run := func(clusters int) Result {
		res, err := Run(Options{
			Spec:     spec,
			Store:    kv.Config{Shards: 2, Strategy: kv.RangedCommit, Batch: 8},
			Clusters: clusters,
			Ops:      400,
			Seed:     4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	if four.ThroughputOpsPerSec <= one.ThroughputOpsPerSec {
		t.Fatalf("4 clusters %.0f ops/s not above 1 cluster %.0f ops/s",
			four.ThroughputOpsPerSec, one.ThroughputOpsPerSec)
	}
}

func TestGroupCommitBeatsPerOpGPF(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 60
	run := func(s kv.Strategy) Result {
		res, err := Run(Options{
			Spec:  spec,
			Store: kv.Config{Shards: 2, Strategy: s, Batch: 16},
			Ops:   400,
			Seed:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gpf := run(kv.GPFEach)
	group := run(kv.GroupCommit)
	if group.ThroughputOpsPerSec <= gpf.ThroughputOpsPerSec {
		t.Fatalf("group commit %.0f ops/s not above per-op GPF %.0f ops/s",
			group.ThroughputOpsPerSec, gpf.ThroughputOpsPerSec)
	}
}

// TestRangedCommitScalesWhereGroupCommitStalls: under a write-heavy
// workload, GroupCommit's per-op commit cost grows with shard count (every
// batch's GPF is charged fabric-wide) while RangedCommit's stays flat, so
// at high shard counts ranged commits win the makespan.
func TestRangedCommitScalesWhereGroupCommitStalls(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 60
	run := func(s kv.Strategy, shards int) Result {
		res, err := Run(Options{
			Spec:  spec,
			Store: kv.Config{Shards: shards, Strategy: s, Batch: 8},
			Ops:   600,
			Seed:  3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	perOp := func(r Result) float64 { return r.TotalCostNS / float64(r.Ops) }
	group2, group12 := run(kv.GroupCommit, 2), run(kv.GroupCommit, 12)
	ranged2, ranged12 := run(kv.RangedCommit, 2), run(kv.RangedCommit, 12)
	if perOp(ranged12) > 1.25*perOp(ranged2) {
		t.Errorf("ranged per-op cost grew with shards: %.0f -> %.0f sim-ns",
			perOp(ranged2), perOp(ranged12))
	}
	if perOp(group12) < 1.5*perOp(group2) {
		t.Errorf("group per-op cost did not grow with shards: %.0f -> %.0f sim-ns",
			perOp(group2), perOp(group12))
	}
	if ranged12.ThroughputOpsPerSec <= group12.ThroughputOpsPerSec {
		t.Errorf("at 12 shards ranged commit %.0f ops/s not above group commit %.0f ops/s",
			ranged12.ThroughputOpsPerSec, group12.ThroughputOpsPerSec)
	}
}

func TestShardingScalesWriteThroughput(t *testing.T) {
	spec, _ := YCSB("A")
	spec.Keys = 80
	run := func(shards int) Result {
		res, err := Run(Options{
			Spec:  spec,
			Store: kv.Config{Shards: shards, Strategy: kv.MStoreEach},
			Ops:   400,
			Seed:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	if four.ThroughputOpsPerSec <= one.ThroughputOpsPerSec {
		t.Fatalf("4 shards %.0f ops/s not above 1 shard %.0f ops/s",
			four.ThroughputOpsPerSec, one.ThroughputOpsPerSec)
	}
}
