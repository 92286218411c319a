package kv

import (
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/obs"
)

// obsCfg is the shared store shape for the event-stream tests: two
// shards, a batched strategy (so acks ride commit events) and a small
// batch.
func obsCfg() Config {
	return Config{Shards: 2, Strategy: GroupCommit, Batch: 4, Capacity: 256, Seed: 11}
}

// ackSum totals the client acks carried across op-span, commit and
// recover events — the event-side of the ack-agreement invariant.
func ackSum(evs []obs.Event) int {
	total := 0
	for _, e := range evs {
		switch e.Kind {
		case obs.KindOp, obs.KindCommit, obs.KindRecover:
			total += e.Acked
		}
	}
	return total
}

// TestObserveEventStream drives one of everything through an observed
// store and checks the emitted stream agrees with the metrics: every op
// has its span, every checkpoint machine fires in order, and the summed
// event acks equal Metrics.Acked.
func TestObserveEventStream(t *testing.T) {
	s, err := Open(obsCfg())
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	stats := obs.NewStats()
	s.Observe(obs.NewRecorder(bus, stats))

	for k := core.Val(0); k < 10; k++ {
		if _, err := s.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(9999); err != nil { // miss is still a span
		t.Fatal(err)
	}
	if _, err := s.MultiGet([]core.Val{1, 2, 9999}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scan(0, 10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(new(Batch).Put(20, 21).Delete(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// One full migration: pick a bucket owned by shard 0, move it to 1.
	bkt := -1
	for b := 0; b < s.NumBuckets(); b++ {
		if s.ShardOfBucket(b) == 0 {
			bkt = b
			break
		}
	}
	if _, err := s.MigrateBucket(bkt, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Crash(0)
	rst, err := s.Recover(0)
	if err != nil {
		t.Fatal(err)
	}

	evs := sub.Poll(0)
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("sub dropped %d events on an unbounded-drain run", d)
	}

	byOp := map[obs.Op]int{}
	var migSteps, compSteps []string
	crashes, recovers := 0, 0
	for _, e := range evs {
		switch e.Kind {
		case obs.KindOp:
			byOp[e.Op]++
		case obs.KindMigration:
			migSteps = append(migSteps, e.Step)
			if e.Bucket != bkt || e.From != 0 || e.To != 1 {
				t.Fatalf("migration step %q routed %d: %d->%d, want %d: 0->1", e.Step, e.Bucket, e.From, e.To, bkt)
			}
		case obs.KindCompaction:
			compSteps = append(compSteps, e.Step)
		case obs.KindCrash:
			crashes++
			if e.Shard != 0 {
				t.Fatalf("crash event on shard %d, want 0", e.Shard)
			}
		case obs.KindRecover:
			recovers++
			if e.N != rst.Recovered || e.Lost != rst.Lost {
				t.Fatalf("recover event (n %d, lost %d) disagrees with stats %+v", e.N, e.Lost, rst)
			}
		}
	}
	if byOp[obs.OpPut] != 10 || byOp[obs.OpDelete] != 1 || byOp[obs.OpGet] != 2 ||
		byOp[obs.OpMultiGet] != 1 || byOp[obs.OpScan] != 1 || byOp[obs.OpApply] != 1 {
		t.Fatalf("op span counts %v disagree with the ops driven", byOp)
	}
	wantMig := []string{"before-copy", "mid-copy", "after-copy", "before-flip", "after-flip"}
	if len(migSteps) != len(wantMig) {
		t.Fatalf("migration steps %v, want %v", migSteps, wantMig)
	}
	for i, st := range wantMig {
		if migSteps[i] != st {
			t.Fatalf("migration steps %v, want %v", migSteps, wantMig)
		}
	}
	// Compact() sweeps both shards; each compaction fires its six
	// checkpoints in order.
	wantComp := []string{"before-snapshot", "mid-snapshot", "after-snapshot", "before-epoch", "after-epoch", "after-reclaim"}
	if len(compSteps)%len(wantComp) != 0 || len(compSteps) == 0 {
		t.Fatalf("compaction steps %v, want whole cycles of %v", compSteps, wantComp)
	}
	for i, st := range compSteps {
		if st != wantComp[i%len(wantComp)] {
			t.Fatalf("compaction steps %v, want repeated cycles of %v", compSteps, wantComp)
		}
	}
	if crashes != 1 || recovers != 1 {
		t.Fatalf("crash/recover events = %d/%d, want 1/1", crashes, recovers)
	}

	m := s.Metrics()
	if got := ackSum(evs); uint64(got) != m.Acked {
		t.Fatalf("event acks sum to %d, Metrics.Acked = %d", got, m.Acked)
	}
	after := 0
	for _, st := range migSteps {
		if st == "after-flip" {
			after++
		}
	}
	if uint64(after) != m.Migrations {
		t.Fatalf("after-flip events = %d, Metrics.Migrations = %d", after, m.Migrations)
	}
	reclaims, reclaimedSlots := 0, 0
	for _, e := range evs {
		if e.Kind == obs.KindCompaction && e.Step == "after-reclaim" {
			reclaims++
			reclaimedSlots += e.Lost
		}
	}
	if uint64(reclaims) != m.Compactions || uint64(reclaimedSlots) != m.ReclaimedSlots {
		t.Fatalf("compaction events (%d cycles, %d reclaimed) disagree with metrics (%d, %d)",
			reclaims, reclaimedSlots, m.Compactions, m.ReclaimedSlots)
	}
	if uint64(recovers) != m.Recoveries {
		t.Fatalf("recover events = %d, Metrics.Recoveries = %d", recovers, m.Recoveries)
	}

	// The stats side saw the same traffic.
	snap := stats.Snapshot()
	totalSpans := 0
	for _, n := range byOp { //cxl0:order-insensitive — commutative sum
		totalSpans += n
	}
	if snap.OpSpans != uint64(totalSpans) {
		t.Fatalf("stats saw %d op spans, events carried %d", snap.OpSpans, totalSpans)
	}
}

// TestObserveZeroClockImpact pins the no-overhead guarantee: an observed
// run and an unobserved run of the same workload land on the identical
// simulated timeline with identical metrics — instrumentation reads the
// clock, never advances it.
func TestObserveZeroClockImpact(t *testing.T) {
	run := func(observe bool) (float64, Metrics) {
		s, err := Open(obsCfg())
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			bus := obs.NewBus(0)
			bus.Subscribe() // a lagging subscriber must not perturb the store either
			s.Observe(obs.NewRecorder(bus, obs.NewStats()))
		}
		for k := core.Val(0); k < 50; k++ {
			if _, err := s.Put(k%20, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Scan(0, 20, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		s.Crash(1)
		if _, err := s.Recover(1); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		return s.NowNS(), s.Metrics()
	}
	plainNS, plainM := run(false)
	obsNS, obsM := run(true)
	if plainNS != obsNS {
		t.Fatalf("observed run consumed %g sim ns, unobserved %g — instrumentation touched the clock", obsNS, plainNS)
	}
	if plainM.Acked != obsM.Acked || plainM.Commits != obsM.Commits ||
		plainM.Compactions != obsM.Compactions || plainM.DroppedPending != obsM.DroppedPending {
		t.Fatalf("observed metrics %+v diverge from unobserved %+v", obsM, plainM)
	}
}

// TestMetricsAckInvariant churns a batched store through writes, crashes
// and recoveries, checking at every snapshot that acks never outrun the
// writes driven (Acked + DroppedPending <= Puts + Deletes, failed ops
// included on the right side only), and that after a final recovery and
// Sync every successful write is accounted acked or dropped.
func TestMetricsAckInvariant(t *testing.T) {
	s, err := Open(obsCfg())
	if err != nil {
		t.Fatal(err)
	}
	failed := uint64(0)
	check := func(stage string) {
		t.Helper()
		m := s.Metrics()
		if m.Acked+m.DroppedPending > m.Puts+m.Deletes {
			t.Fatalf("%s: Acked %d + DroppedPending %d exceeds writes %d",
				stage, m.Acked, m.DroppedPending, m.Puts+m.Deletes)
		}
	}
	for round := 0; round < 8; round++ {
		for k := core.Val(0); k < 10; k++ {
			if _, err := s.Put(k, core.Val(round)*100+k+1); err != nil {
				failed++
			}
			check("mid-churn")
		}
		if round%3 == 1 {
			sh := round % s.NumShards()
			s.Crash(sh)
			check("post-crash")
			if _, err := s.Recover(sh); err != nil {
				t.Fatal(err)
			}
			check("post-recover")
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Acked+m.DroppedPending+failed != m.Puts+m.Deletes {
		t.Fatalf("after sync: Acked %d + DroppedPending %d + failed %d != writes %d",
			m.Acked, m.DroppedPending, failed, m.Puts+m.Deletes)
	}
	if failed != 0 {
		t.Fatalf("churn unexpectedly failed %d writes (capacity too small for the test)", failed)
	}
}

// TestMetricsFillAndLive pins the new per-shard gauges: fill tracks the
// log length against capacity and live the index size, per shard.
func TestMetricsFillAndLive(t *testing.T) {
	cfg := obsCfg()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := core.Val(0); k < 12; k++ {
		if _, err := s.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if len(m.PerShardFill) != cfg.Shards || len(m.PerShardLive) != cfg.Shards {
		t.Fatalf("per-shard gauges sized %d/%d, want %d", len(m.PerShardFill), len(m.PerShardLive), cfg.Shards)
	}
	totalLive, totalFillSlots := 0, 0.0
	for i := 0; i < cfg.Shards; i++ {
		if m.PerShardFill[i] < 0 || m.PerShardFill[i] > 1 {
			t.Fatalf("shard %d fill %g outside [0,1]", i, m.PerShardFill[i])
		}
		totalLive += m.PerShardLive[i]
		totalFillSlots += m.PerShardFill[i] * float64(cfg.Capacity)
	}
	if totalLive != 12 {
		t.Fatalf("live records sum to %d, want 12", totalLive)
	}
	if totalFillSlots < 12-0.5 { // 12 appended records occupy log slots
		t.Fatalf("fill gauges account for %g slots, want >= 12", totalFillSlots)
	}
}

// TestObserveCountsCompletedSteps holds obs's completed-migration and
// completed-compaction counters to the store's own after a run that
// migrates and compacts: the store marks the checkpoint that completes
// each, so the counters follow kv's steps whatever they are named.
func TestObserveCountsCompletedSteps(t *testing.T) {
	s := openTest(t, obsCfg())
	stats := obs.NewStats()
	s.Observe(obs.NewRecorder(nil, stats))
	for k := core.Val(0); k < 40; k++ {
		if _, err := s.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	for b, moved := 0, 0; b < s.NumBuckets() && moved < 3; b++ {
		if s.ShardOfBucket(b) == 0 {
			if _, err := s.MigrateBucket(b, 1); err != nil {
				t.Fatal(err)
			}
			moved++
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	m, snap := s.Metrics(), stats.Snapshot()
	if m.Migrations != 3 || m.Compactions != 2 || snap.Migrations != m.Migrations || snap.Compactions != m.Compactions {
		t.Fatalf("obs counted %d migrations and %d compactions, the store %d and %d (want 3 and 2)",
			snap.Migrations, snap.Compactions, m.Migrations, m.Compactions)
	}
}
