package kv

import (
	"errors"
	"testing"

	"cxl0/internal/core"
)

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// bucketMates returns n keys of key k's bucket, k first and the rest
// ascending. The shard map has at least 128 buckets, so a test that
// moves a bucket of several records picks them through bucketOf.
func bucketMates(st *Store, k core.Val, n int) []core.Val {
	keys := []core.Val{k}
	for c := k + 1; len(keys) < n; c++ {
		if st.bucketOf(c) == st.bucketOf(k) {
			keys = append(keys, c)
		}
	}
	return keys
}

func TestBasicOps(t *testing.T) {
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			st := openTest(t, Config{Shards: 3, Capacity: 64, Strategy: strat, Batch: 4, Seed: 11, EvictEvery: 3})
			for k := core.Val(0); k < 20; k++ {
				ack, err := st.Put(k, k*10+1)
				if err != nil {
					t.Fatalf("put %d: %v", k, err)
				}
				if !strat.Batched() && !ack.Durable {
					t.Fatalf("put %d not durable under %v", k, strat)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			for k := core.Val(0); k < 20; k++ {
				v, ok, err := st.Get(k)
				if err != nil || !ok || v != k*10+1 {
					t.Fatalf("get %d = (%d, %v, %v), want (%d, true, nil)", k, v, ok, err, k*10+1)
				}
			}
			if _, ok, _ := st.Get(999); ok {
				t.Fatal("phantom key 999")
			}
			if _, err := st.Delete(7); err != nil {
				t.Fatal(err)
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := st.Get(7); ok {
				t.Fatal("key 7 survived delete")
			}
			pairs, err := st.Scan(5, 12, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := []core.Val{5, 6, 8, 9, 10, 11}
			if len(pairs) != len(want) {
				t.Fatalf("scan [5,12) = %v, want keys %v", pairs, want)
			}
			for i, p := range pairs {
				if p.Key != want[i] || p.Val != want[i]*10+1 {
					t.Fatalf("scan pair %d = %+v, want key %d", i, p, want[i])
				}
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	st := openTest(t, Config{Shards: 1, Capacity: 8})
	if _, err := st.Put(-1, 5); !errors.Is(err, ErrBadKey) {
		t.Fatalf("negative key: %v", err)
	}
	if _, err := st.Put(1, 0); !errors.Is(err, ErrBadKey) {
		t.Fatalf("zero value: %v", err)
	}
	if _, _, err := st.Get(-2); !errors.Is(err, ErrBadKey) {
		t.Fatalf("negative get: %v", err)
	}
}

func TestShardFull(t *testing.T) {
	st := openTest(t, Config{Shards: 1, Capacity: 4, Strategy: MStoreEach})
	var lastErr error
	for k := core.Val(0); k < 10; k++ {
		_, lastErr = st.Put(k, 1)
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrShardFull) {
		t.Fatalf("want ErrShardFull, got %v", lastErr)
	}
}

func TestDownShardRejectsOps(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 32, Strategy: MStoreEach})
	if _, err := st.Put(1, 10); err != nil {
		t.Fatal(err)
	}
	down := st.ShardOf(1)
	st.Crash(down)
	if _, _, err := st.Get(1); !errors.Is(err, ErrShardDown) {
		t.Fatalf("get on down shard: %v", err)
	}
	if _, err := st.Put(1, 11); !errors.Is(err, ErrShardDown) {
		t.Fatalf("put on down shard: %v", err)
	}
	if _, err := st.Scan(0, 100, 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("scan with down shard: %v", err)
	}
	stats, err := st.Recover(down)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovered == 0 && st.ShardOf(1) == down {
		t.Fatal("acknowledged record lost by recovery")
	}
	if v, ok, err := st.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("get after recovery = (%d, %v, %v)", v, ok, err)
	}
	if stats.SimNS <= 0 {
		t.Fatal("recovery consumed no simulated time")
	}
}

func TestGroupCommitAcksAtBatchBoundary(t *testing.T) {
	st := openTest(t, Config{Shards: 1, Capacity: 64, Strategy: GroupCommit, Batch: 4})
	for i := 0; i < 3; i++ {
		ack, err := st.Put(core.Val(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Durable {
			t.Fatalf("write %d acked before batch boundary", i)
		}
	}
	ack, err := st.Put(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Durable {
		t.Fatal("fourth write should close the batch")
	}
	if got := st.AckedCount(0); got != 4 {
		t.Fatalf("acked = %d, want 4", got)
	}
	m := st.Metrics()
	if m.Commits != 1 {
		t.Fatalf("commits = %d, want 1", m.Commits)
	}
}

func TestGroupCommitAmortizesGPF(t *testing.T) {
	run := func(strat Strategy) float64 {
		st := openTest(t, Config{Shards: 1, Capacity: 256, Strategy: strat, Batch: 16, Seed: 5})
		for k := core.Val(0); k < 128; k++ {
			if _, err := st.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		return st.Metrics().MaxBusyNS()
	}
	gpf := run(GPFEach)
	group := run(GroupCommit)
	if group >= gpf {
		t.Fatalf("group commit (%.0f sim-ns) not faster than per-op GPF (%.0f sim-ns)", group, gpf)
	}
}

// TestRangedCommitAcksAtBatchBoundary: RangedCommit follows the same ack
// discipline as GroupCommit — Durable only at the commit point.
func TestRangedCommitAcksAtBatchBoundary(t *testing.T) {
	st := openTest(t, Config{Shards: 1, Capacity: 64, Strategy: RangedCommit, Batch: 4})
	for i := 0; i < 3; i++ {
		ack, err := st.Put(core.Val(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Durable {
			t.Fatalf("write %d acked before batch boundary", i)
		}
		// Visible before durable, like an unflushed RStore'd value.
		if v, ok, err := st.Get(core.Val(i)); err != nil || !ok || v != 1 {
			t.Fatalf("pending write %d not visible: (%d, %v, %v)", i, v, ok, err)
		}
	}
	ack, err := st.Put(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Durable {
		t.Fatal("fourth write should close the batch")
	}
	if got := st.AckedCount(0); got != 4 {
		t.Fatalf("acked = %d, want 4", got)
	}
	if m := st.Metrics(); m.Commits != 1 {
		t.Fatalf("commits = %d, want 1", m.Commits)
	}
}

// TestRangedCommitChargesOnlyItsShard is the accounting half of the
// tentpole claim: a GroupCommit batch's GPF stalls every shard, while a
// RangedCommit batch's ranged flush lands on the committing shard alone.
func TestRangedCommitChargesOnlyItsShard(t *testing.T) {
	run := func(strat Strategy) Metrics {
		st := openTest(t, Config{Shards: 4, Capacity: 128, Strategy: strat, Batch: 4, Seed: 8})
		// Route every write to one shard so the other three shards perform
		// no operations of their own.
		target := st.ShardOf(0)
		wrote := 0
		for k := core.Val(0); wrote < 16; k++ {
			if st.ShardOf(k) != target {
				continue
			}
			if _, err := st.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
			wrote++
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		m := st.Metrics()
		if m.Commits == 0 {
			t.Fatalf("%v: no batches committed", strat)
		}
		// Idle-shard busy time is exactly the cross-charged commit cost.
		idle := 0.0
		for i, b := range m.PerShardBusyNS {
			if i != target {
				idle += b
			}
		}
		if strat == GroupCommit && idle == 0 {
			t.Fatalf("GroupCommit charged nothing to idle shards — GPF should stall the fabric")
		}
		if strat == RangedCommit && idle != 0 {
			t.Fatalf("RangedCommit charged %.0f sim-ns to idle shards — commits must be shard-local", idle)
		}
		return m
	}
	run(GroupCommit)
	run(RangedCommit)
}

// TestRangedCommitCostFlatInShardCount is the tentpole claim end to end: a
// GroupCommit batch's GPF is charged to every shard, so mean per-op cost
// grows linearly with shard count and batching gains stop scaling;
// RangedCommit's per-op cost does not depend on how many shards exist.
// (On very few shards GroupCommit can still win outright — a GPF costs the
// same no matter how large the batch's footprint is — the point is the
// scaling behaviour, not the single-shard constant.)
func TestRangedCommitCostFlatInShardCount(t *testing.T) {
	meanPerOp := func(strat Strategy, shards int) float64 {
		st := openTest(t, Config{Shards: shards, Capacity: 128, Strategy: strat, Batch: 8, Seed: 6})
		puts := 24 * shards
		for k := 0; k < puts; k++ {
			if _, err := st.Put(core.Val(k), core.Val(k+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		return st.Metrics().TotalBusyNS() / float64(puts)
	}
	group2, group12 := meanPerOp(GroupCommit, 2), meanPerOp(GroupCommit, 12)
	ranged2, ranged12 := meanPerOp(RangedCommit, 2), meanPerOp(RangedCommit, 12)
	if ranged12 > 1.2*ranged2 {
		t.Errorf("ranged per-op cost grew with shards: %.0f -> %.0f sim-ns", ranged2, ranged12)
	}
	if group12 < 2*group2 {
		t.Errorf("group per-op cost did not grow with shards: %.0f -> %.0f sim-ns", group2, group12)
	}
	if ranged12 >= group12 {
		t.Errorf("at 12 shards ranged commit (%.0f sim-ns/op) not below group commit (%.0f sim-ns/op)",
			ranged12, group12)
	}
}

// TestShardMapLayout pins the shard map Open builds: max(128, Shards)
// buckets rounded up to a multiple of Shards, so every key starts on the
// shard static hash-mod-Shards routing would pick.
func TestShardMapLayout(t *testing.T) {
	for _, tc := range []struct{ shards, buckets int }{
		{1, 128}, {2, 128}, {3, 129}, {4, 128}, {5, 130}, {6, 132}, {7, 133},
		{8, 128}, {9, 135}, {10, 130}, {11, 132}, {12, 132}, {13, 130}, {200, 200},
	} {
		st := openTest(t, Config{Shards: tc.shards, Capacity: 1})
		if got := st.NumBuckets(); got != tc.buckets {
			t.Errorf("%d shards: %d buckets, want %d", tc.shards, got, tc.buckets)
		}
		for k := core.Val(0); k < 1000; k++ {
			if got, want := st.ShardOf(k), int(hashKey(k)%uint64(tc.shards)); got != want {
				t.Fatalf("%d shards: key %d starts on shard %d, want %d", tc.shards, k, got, want)
			}
		}
	}
}

// TestShardMapMigrateBucket covers the shard-map indirection end to end:
// migrating a bucket repoints routing, hands the index over, keeps every
// value readable, and reports itself in the metrics.
func TestShardMapMigrateBucket(t *testing.T) {
	st := openTest(t, Config{Shards: 3, Capacity: 64, Strategy: RangedCommit, Batch: 4, Seed: 7})
	// Keys 0..20 and two more of key 5's bucket, which the test moves.
	var keys []core.Val
	for k := core.Val(0); k < 21; k++ {
		keys = append(keys, k)
	}
	keys = append(keys, bucketMates(st, 5, 3)[1:]...)
	for _, k := range keys {
		if _, err := st.Put(k, k*10+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	b := st.BucketOf(5)
	from := st.ShardOfBucket(b)
	to := (from + 1) % 3
	stats, err := st.MigrateBucket(b, to)
	if err != nil {
		t.Fatal(err)
	}
	if stats.From != from || stats.To != to || stats.Records != 3 || stats.SimNS <= 0 {
		t.Fatalf("migration stats %+v, want 3 records", stats)
	}
	for _, k := range keys {
		if st.BucketOf(k) == b && st.ShardOf(k) != to {
			t.Fatalf("key %d (bucket %d) still routes to shard %d", k, b, st.ShardOf(k))
		}
		v, ok, err := st.Get(k)
		if err != nil || !ok || v != k*10+1 {
			t.Fatalf("get %d after migration = (%d, %v, %v)", k, v, ok, err)
		}
		if st.BucketOf(k) == b {
			if _, stale := st.shards[from].view.visible(k); stale {
				t.Fatalf("key %d still indexed on source shard %d", k, from)
			}
		}
	}
	pairs, err := st.Scan(0, keys[len(keys)-1]+1, 0)
	if err != nil || len(pairs) != len(keys) {
		t.Fatalf("scan after migration: %d pairs, %v", len(pairs), err)
	}
	// Migrating to the current owner is a no-op.
	if noop, err := st.MigrateBucket(b, to); err != nil || noop.Records != 0 {
		t.Fatalf("no-op migration = %+v, %v", noop, err)
	}
	m := st.Metrics()
	if m.Migrations != 1 || int(m.MigratedRecords) != stats.Records {
		t.Fatalf("metrics: %d migrations, %d records; want 1, %d",
			m.Migrations, m.MigratedRecords, stats.Records)
	}
}

// TestRebalanceShedsHotLoad drives two hot buckets that start on the same
// shard and checks that Rebalance splits them: the busy-share imbalance of
// the post-rebalance window must be strictly below the static one.
func TestRebalanceShedsHotLoad(t *testing.T) {
	st := openTest(t, Config{Shards: 4, Strategy: RangedCommit, Batch: 8, Capacity: 4096, Seed: 9})
	// Two keys in different buckets served by the same shard.
	k1 := core.Val(0)
	k2 := core.Val(-1)
	for k := core.Val(1); k < 200; k++ {
		if st.ShardOf(k) == st.ShardOf(k1) && st.BucketOf(k) != st.BucketOf(k1) {
			k2 = k
			break
		}
	}
	if k2 < 0 {
		t.Fatal("no bucket pair found")
	}
	hammer := func() []float64 {
		for i := 0; i < 150; i++ {
			for _, k := range []core.Val{k1, k2} {
				if _, err := st.Put(k, core.Val(i)+1); err != nil {
					t.Fatal(err)
				}
				if _, _, err := st.Get(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		return st.Metrics().PerShardBusyNS
	}
	ratio := func(delta []float64) float64 {
		max, total := 0.0, 0.0
		for _, d := range delta {
			total += d
			if d > max {
				max = d
			}
		}
		return max / (total / float64(len(delta)))
	}
	window1 := hammer()
	moves, err := st.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("rebalance moved nothing off the hot shard")
	}
	if st.ShardOf(k1) == st.ShardOf(k2) {
		t.Fatalf("hot buckets still colocated on shard %d", st.ShardOf(k1))
	}
	base := st.Metrics().PerShardBusyNS
	window2 := hammer()
	delta := make([]float64, len(window2))
	for i := range delta {
		delta[i] = window2[i] - base[i]
	}
	if r1, r2 := ratio(window1), ratio(delta); r2 >= r1 {
		t.Fatalf("imbalance did not improve: %.2f static, %.2f rebalanced", r1, r2)
	}
}

// TestRebalanceHoldsBelowThreshold: a busy-share imbalance under the 1.2
// threshold migrates nothing, so a balanced map settles.
func TestRebalanceHoldsBelowThreshold(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Strategy: MStoreEach, Capacity: 1024, Seed: 5})
	// 11 writes to shard 0 for every 9 to shard 1, spread over many
	// buckets: a max/mean busy share near 1.1.
	var keys [2][]core.Val
	for k := core.Val(0); len(keys[0]) < 11 || len(keys[1]) < 9; k++ {
		if sh := st.ShardOf(k); len(keys[sh]) < 11-2*sh {
			keys[sh] = append(keys[sh], k)
		}
	}
	for i := 0; i < 20; i++ {
		for _, ks := range keys {
			for _, k := range ks {
				if _, err := st.Put(k, core.Val(i)+1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if r := st.Metrics().MaxMeanBusyRatio(); r <= 1.05 || r >= rebalanceThreshold {
		t.Fatalf("max/mean busy %.3f, want just under the threshold %v", r, rebalanceThreshold)
	}
	if moves, err := st.Rebalance(); err != nil || len(moves) != 0 {
		t.Fatalf("rebalance below the threshold: %d moves, %v; want none", len(moves), err)
	}
}

// TestScanSkipsIdleDownShard: a scan must only fail when a down shard
// actually holds keys in the scanned range.
func TestScanSkipsIdleDownShard(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 32, Strategy: MStoreEach, Seed: 5})
	up := core.Val(0)
	down := core.Val(-1)
	for k := core.Val(1); k < 50; k++ {
		if st.ShardOf(k) != st.ShardOf(up) {
			down = k
			break
		}
	}
	if down < 0 {
		t.Fatal("no key pair on distinct shards")
	}
	for _, k := range []core.Val{up, down} {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	st.Crash(st.ShardOf(down))
	pairs, err := st.Scan(up, up+1, 0)
	if err != nil || len(pairs) != 1 || pairs[0].Key != up {
		t.Fatalf("scan of live shard's range = %v, %v; want just key %d", pairs, err, up)
	}
	if _, err := st.Scan(down, down+1, 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("scan touching the down shard: %v, want ErrShardDown", err)
	}
}

// TestAckedCountsCumulativeClientWrites pins the Metrics.Acked semantics:
// a cumulative acknowledged-client-write counter that neither recovery
// truncation nor migration bookkeeping can distort.
func TestAckedCountsCumulativeClientWrites(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 128, Strategy: GroupCommit, Batch: 4, Seed: 13})
	for k := core.Val(0); k < 10; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Metrics().Acked; got != 10 {
		t.Fatalf("acked = %d after 10 synced puts", got)
	}
	// Migration copies records and appends move markers; none of that is
	// a client write.
	b := st.BucketOf(0)
	if _, err := st.MigrateBucket(b, 1-st.ShardOfBucket(b)); err != nil {
		t.Fatal(err)
	}
	m := st.Metrics()
	if m.Acked != 10 {
		t.Fatalf("migration changed Acked: %d", m.Acked)
	}
	if m.MigratedRecords == 0 {
		t.Fatal("migration copied nothing")
	}
	// Crash churn with pending writes: the counter must never go back.
	before := m.Acked
	for k := core.Val(20); k < 22; k++ {
		if _, err := st.Put(k, 5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < st.NumShards(); i++ {
		st.Crash(i)
		if _, err := st.Recover(i); err != nil {
			t.Fatal(err)
		}
	}
	after := st.Metrics().Acked
	if after < before {
		t.Fatalf("acked went backwards across recovery: %d -> %d", before, after)
	}
	// Slot reuse after truncation keeps counting forward.
	for k := core.Val(30); k < 34; k++ {
		if _, err := st.Put(k, 6); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Metrics().Acked; got != after+4 {
		t.Fatalf("acked = %d after 4 more synced puts, want %d", got, after+4)
	}
}

// TestRecoverDetectsDurabilityViolation: a checksum cut inside the
// acknowledged prefix is impossible while the strategies keep their
// contract, so Recover must report it instead of silently truncating
// acknowledged data.
func TestRecoverDetectsDurabilityViolation(t *testing.T) {
	st := openTest(t, Config{Shards: 1, Capacity: 32, Strategy: MStoreEach, Seed: 3})
	for k := core.Val(0); k < 5; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt an acknowledged record's checksum word behind the service's
	// back — simulated medium corruption.
	th, err := st.Cluster().NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.MStore(st.shards[0].logR.loc(2, 2), 0); err != nil {
		t.Fatal(err)
	}
	st.Crash(0)
	if _, err := st.Recover(0); !errors.Is(err, ErrDurabilityViolation) {
		t.Fatalf("recover after corruption: %v, want ErrDurabilityViolation", err)
	}
}

// TestRefusedRecoveryIsCharged: a recovery that fails part-way has still
// spent simulated time on the shard, and that span is churn on its busy
// clock like a successful recovery's. The crashed shard's open batch
// needs a re-persisting GPF, which the other shard's partition refuses.
func TestRefusedRecoveryIsCharged(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 256, Strategy: GroupCommit, Batch: 64, Seed: 1})
	for k := core.Val(0); k < 40; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	victim := st.ShardOf(0)
	st.Crash(victim)
	st.Partition(1 - victim)
	before, m := st.Cluster().NowNS(), st.Metrics()
	if _, err := st.Recover(victim); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("recover beside a partitioned shard: %v, want ErrUnavailable", err)
	}
	span := st.Cluster().NowNS() - before
	if span <= 0 {
		t.Fatal("the refused recovery took no simulated time")
	}
	after := st.Metrics()
	busy := after.PerShardBusyNS[victim] - m.PerShardBusyNS[victim]
	churn := after.PerShardChurnNS[victim] - m.PerShardChurnNS[victim]
	if busy != span || churn != span {
		t.Errorf("refused recovery of %.0f ns charged busy %.0f ns, churn %.0f ns", span, busy, churn)
	}
}

// TestStrategyTable holds the rules table (persist.go) to the declared
// strategies: with the table there is no dispatch switch for the
// strategyswitch lint to hold exhaustive, so a strategy added without a
// row, or a row that would persist nothing, fails here.
func TestStrategyTable(t *testing.T) {
	if len(rules) != len(Strategies) {
		t.Fatalf("%d rows for %d strategies", len(rules), len(Strategies))
	}
	names := map[string]bool{}
	for _, s := range Strategies {
		r, err := s.row()
		if err != nil {
			t.Fatalf("strategy %d has no row: %v", int(s), err)
		}
		if r.name == "" || names[r.name] {
			t.Errorf("strategy %d: name %q empty or not unique", int(s), r.name)
		}
		names[r.name] = true
		if !r.store.IsStore() {
			t.Errorf("%v: store op %v is not a store", s, r.store)
		}
		if r.flush == flushEach && r.batched {
			t.Errorf("%v: a flush-each rule cannot batch", s)
		}
		if r.flush == flushNone && r.store != core.OpMStore {
			t.Errorf("%v: %v without a flush persists nothing", s, r.store)
		}
	}
	for _, bad := range []Strategy{-1, Strategy(len(Strategies))} {
		if _, err := Open(Config{Strategy: bad}); !errors.Is(err, ErrUnknownStrategy) {
			t.Errorf("Open(%v) = %v, want ErrUnknownStrategy", bad, err)
		}
	}
}

func TestStrategyParsing(t *testing.T) {
	for _, s := range Strategies {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if got, err := ParseStrategy(" RANGED "); err != nil || got != RangedCommit {
		t.Errorf("case/space-insensitive parse failed: %v, %v", got, err)
	}
	if _, err := ParseStrategy("turbo"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if MStoreEach.Batched() || !RangedCommit.Batched() || !GroupCommit.Batched() {
		t.Error("Batched predicate wrong")
	}
}
