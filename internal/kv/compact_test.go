package kv

import (
	"errors"
	"strings"
	"testing"

	"cxl0/internal/core"
)

// TestCompactReclaimsAndPreserves covers one explicit compaction end to
// end under every strategy: visibility is unchanged, the log is
// reclaimed, deleted and overwritten records are retired, the snapshot
// epoch advances, and the compacted state survives crash/recovery.
func TestCompactReclaimsAndPreserves(t *testing.T) {
	// The snapshot is written in key order: compaction folds view.all(),
	// which yields it, and recovery's re-homing relies on it.
	snapInKeyOrder := func(t *testing.T, st *Store) {
		t.Helper()
		for i, r := range st.shards[0].snap[1:] {
			if prev := st.shards[0].snap[i].key; prev >= r.key {
				t.Fatalf("snapshot record %d holds key %d after key %d, want ascending", i+1, r.key, prev)
			}
		}
	}
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			st := openTest(t, Config{Shards: 1, Capacity: 64, Strategy: strat, Batch: 4, Seed: 17, EvictEvery: 3})
			want := map[core.Val]core.Val{}
			for k := core.Val(0); k < 20; k++ {
				if _, err := st.Put(k, 100+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 100 + k
			}
			for k := core.Val(0); k < 20; k += 4 {
				if _, err := st.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(want, k)
			}
			for k := core.Val(1); k < 20; k += 4 {
				if _, err := st.Put(k, 300+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 300 + k
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			appended := st.AppendedCount(0)

			stats, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if len(stats) != 1 {
				t.Fatalf("compacted %d shards, want 1", len(stats))
			}
			cs := stats[0]
			if cs.Shard != 0 || cs.Epoch != 1 || cs.Live != len(want) {
				t.Fatalf("stats %+v: want shard 0, epoch 1, live %d", cs, len(want))
			}
			if cs.Reclaimed != appended-len(want) {
				t.Fatalf("reclaimed %d slots of %d appended with %d live", cs.Reclaimed, appended, len(want))
			}
			if cs.SimNS <= 0 {
				t.Fatal("compaction consumed no simulated time")
			}
			if st.AppendedCount(0) != 0 {
				t.Fatalf("log not reclaimed: %d records remain", st.AppendedCount(0))
			}
			if st.SnapshotLen(0) != len(want) {
				t.Fatalf("snapshot holds %d records, want %d", st.SnapshotLen(0), len(want))
			}
			check := func() {
				t.Helper()
				for k := core.Val(0); k < 20; k++ {
					v, ok, err := st.Get(k)
					wv, wok := want[k]
					if err != nil || ok != wok || (ok && v != wv) {
						t.Fatalf("get(%d) = (%d,%v,%v), want (%d,%v)", k, v, ok, err, wv, wok)
					}
				}
				if pairs, err := st.Scan(0, 100, 0); err != nil || len(pairs) != len(want) {
					t.Fatalf("scan = %d pairs, %v; want %d", len(pairs), err, len(want))
				}
			}
			check()

			m := st.Metrics()
			if m.Compactions != 1 || int(m.ReclaimedSlots) != cs.Reclaimed || len(m.CompactionNS) != 1 {
				t.Fatalf("metrics %+v after one compaction", m)
			}
			// Compaction time is churn: excluded from the placement-skew
			// metric like recovery time.
			if m.PerShardChurnNS[0] <= 0 || m.PerShardChurnNS[0] > m.PerShardBusyNS[0] {
				t.Fatalf("churn %.0f vs busy %.0f", m.PerShardChurnNS[0], m.PerShardBusyNS[0])
			}

			// The compacted state is durable: crash and recover, then keep
			// serving.
			st.Crash(0)
			rstats, err := st.Recover(0)
			if err != nil {
				t.Fatal(err)
			}
			if rstats.Snapshot != len(want) || rstats.Recovered != 0 {
				t.Fatalf("recovery stats %+v: want %d snapshot records, 0 log records", rstats, len(want))
			}
			check()

			// Writes keep appending on the reclaimed log; a second
			// compaction folds snapshot + log and advances the epoch.
			for k := core.Val(2); k < 20; k += 4 {
				if _, err := st.Put(k, 500+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 500 + k
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if e := st.SnapshotEpoch(0); e != 2 {
				t.Fatalf("epoch %d after second compaction, want 2", e)
			}
			snapInKeyOrder(t, st)
			check()
			if got := st.Metrics().Compactions; got != 2 {
				t.Fatalf("compactions = %d, want 2", got)
			}
		})
	}
}

// TestCompactEmptyLogIsNoop: compacting a shard with an empty log does
// nothing — no epoch bump, no counters.
func TestCompactEmptyLogIsNoop(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 32, Strategy: MStoreEach, Seed: 4})
	if stats, err := st.Compact(); err != nil || len(stats) != 0 {
		t.Fatalf("compact of empty store: %+v, %v", stats, err)
	}
	if m := st.Metrics(); m.Compactions != 0 || m.ReclaimedSlots != 0 {
		t.Fatalf("noop compaction counted: %+v", m)
	}
	// After a real compaction, a second immediate Compact is a no-op too
	// (the snapshot already holds exactly the live set).
	if _, err := st.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	before := st.Metrics().Compactions
	if stats, err := st.Compact(); err != nil || len(stats) != 0 {
		t.Fatalf("immediate re-compact: %+v, %v", stats, err)
	}
	if got := st.Metrics().Compactions; got != before {
		t.Fatalf("re-compact bumped the counter: %d -> %d", before, got)
	}
}

// TestCompactReclaimsMigratedAwayRecords: records a bucket migration left
// behind on the source shard are dead weight until compaction retires
// them (the ROADMAP hand-off between rebalancing and compaction).
func TestCompactReclaimsMigratedAwayRecords(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 128, Strategy: RangedCommit, Batch: 4, Seed: 19})
	// Keys 0..23 and three more of key 0's bucket, which the test moves.
	var keys []core.Val
	for k := core.Val(0); k < 24; k++ {
		keys = append(keys, k)
	}
	keys = append(keys, bucketMates(st, 0, 4)[1:]...)
	for _, k := range keys {
		if _, err := st.Put(k, 10+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	b := st.BucketOf(0)
	from := st.ShardOfBucket(b)
	mig, err := st.MigrateBucket(b, 1-from)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Records != 4 {
		t.Fatalf("migration moved %d records, want 4", mig.Records)
	}
	appended := st.AppendedCount(from)
	live := 0
	for _, k := range keys {
		if st.ShardOf(k) == from {
			live++
		}
	}
	stats, err := st.CompactShard(from)
	if err != nil {
		t.Fatal(err)
	}
	// The source log held the migrated-away records plus its move-out
	// marker; all of them (and nothing live) must be reclaimed.
	if stats.Live != live || stats.Reclaimed != appended-live {
		t.Fatalf("compaction stats %+v: want live %d, reclaimed %d", stats, live, appended-live)
	}
	for _, k := range keys {
		v, ok, err := st.Get(k)
		if err != nil || !ok || v != 10+k {
			t.Fatalf("get(%d) = (%d,%v,%v) after migrate+compact", k, v, ok, err)
		}
	}
	// And the compacted source still recovers and migrates cleanly.
	st.Crash(from)
	if _, err := st.Recover(from); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MigrateBucket(b, from); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, ok, err := st.Get(k); err != nil || !ok || v != 10+k {
			t.Fatalf("get(%d) = (%d,%v,%v) after migrate-back", k, v, ok, err)
		}
	}
}

// TestAutoCompactMidBatchAccounting is the regression test for the
// auto-compaction bugfix: a compaction triggered from inside Apply's
// batch commit path must neither deadlock nor double-charge its time as
// traffic. The compaction runs before the triggering append's span stamp
// and charges itself as churn, so the run's traffic time (busy − churn)
// must equal the identical Apply stream on an uncapped store that never
// compacts.
func TestAutoCompactMidBatchAccounting(t *testing.T) {
	run := func(capacity int, fill float64) (Metrics, int) {
		st := openTest(t, Config{
			Shards: 1, Capacity: capacity, CompactAtFill: fill,
			Strategy: RangedCommit, Batch: 8, Seed: 23,
		})
		writes := 0
		for round := 0; round < 6; round++ {
			b := new(Batch)
			for k := core.Val(0); k < 10; k++ {
				b.Put(k, core.Val(1000*round)+k+1)
				writes++
			}
			b.Delete(core.Val(round))
			writes++
			ack, err := st.Apply(b)
			if err != nil {
				t.Fatal(err)
			}
			if !ack.Durable {
				t.Fatalf("round %d: Apply ack not durable", round)
			}
		}
		return st.Metrics(), writes
	}

	capped, writes := run(24, 0.7)
	if capped.Compactions == 0 {
		t.Fatal("capacity pressure never triggered auto-compaction mid-batch")
	}
	if int(capped.Acked) != writes {
		t.Fatalf("acked %d client writes, %d applied: mid-batch compaction must ack each write exactly once",
			capped.Acked, writes)
	}
	if len(capped.WriteLatencies) != writes {
		t.Fatalf("%d ack latencies for %d writes", len(capped.WriteLatencies), writes)
	}

	uncapped, _ := run(4096, 0)
	if uncapped.Compactions != 0 {
		t.Fatal("uncapped run compacted")
	}
	traffic := func(m Metrics) float64 {
		total := 0.0
		for i, b := range m.PerShardBusyNS {
			total += b - m.PerShardChurnNS[i]
		}
		return total
	}
	churn := func(m Metrics) float64 {
		total := 0.0
		for _, c := range m.PerShardChurnNS {
			total += c
		}
		return total
	}
	ct, ut := traffic(capped), traffic(uncapped)
	cc := churn(capped)
	if ut <= 0 || cc <= 0 {
		t.Fatalf("degenerate run: traffic %.0f, churn %.0f", ut, cc)
	}
	// The capped run's traffic may exceed the uncapped run's only by the
	// extra commit flushes the mid-batch commits introduce (a batch split
	// across a compaction pays the fixed flush cost twice) — a sliver of
	// one commit each. The bug this test pins — compaction time counted
	// inside the triggering append's span — would instead leak the whole
	// compaction cost (≈ the churn total, here larger than the entire
	// traffic time) into traffic, so a tight churn-relative bound detects
	// it with a wide margin.
	if ct < ut-1e-6*ut {
		t.Fatalf("traffic time shrank under auto-compaction: %.0f capped vs %.0f uncapped", ct, ut)
	}
	if ct-ut > cc/10 {
		t.Fatalf("traffic time drifted under auto-compaction: %.0f capped vs %.0f uncapped with churn %.0f "+
			"(compaction cost leaked out of churn)", ct, ut, cc)
	}
}

// TestAutoCompactUntilLiveExceedsCapacity pins the ShardFullError
// contract under auto-compaction: overwrite churn never fills the
// service, and the error returns — still structured and diagnosable —
// only once the live set itself cannot fold into a shard.
func TestAutoCompactUntilLiveExceedsCapacity(t *testing.T) {
	st := openTest(t, Config{Shards: 1, Capacity: 16, CompactAtFill: 0.75, Strategy: MStoreEach, Seed: 29})
	// 10 live keys, 10 rounds: 100 appends through a 16-slot log.
	for round := 0; round < 10; round++ {
		for k := core.Val(0); k < 10; k++ {
			if _, err := st.Put(k, core.Val(round)*100+k+1); err != nil {
				t.Fatalf("round %d put(%d): %v", round, k, err)
			}
		}
	}
	if m := st.Metrics(); m.Compactions == 0 {
		t.Fatal("overwrite churn never compacted")
	}
	// Fresh keys grow the live set past capacity: the next fold cannot
	// fit, and the error names the real condition.
	var lastErr error
	for k := core.Val(100); k < 200 && lastErr == nil; k++ {
		_, lastErr = st.Put(k, 1)
	}
	if !errors.Is(lastErr, ErrShardFull) {
		t.Fatalf("want ErrShardFull once live data exceeds capacity, got %v", lastErr)
	}
	var full *ShardFullError
	if !errors.As(lastErr, &full) {
		t.Fatalf("error does not carry *ShardFullError: %v", lastErr)
	}
	if !full.Live || full.Appended <= full.Capacity {
		t.Fatalf("diagnostics %+v should report a live set above capacity", full)
	}
	if msg := lastErr.Error(); !strings.Contains(msg, "live set cannot fold") {
		t.Fatalf("error message %q does not name the live-set condition", msg)
	}
}

// TestRecoverDetectsSnapshotCorruption: a committed snapshot record or
// the epoch record failing validation is a durability violation, not a
// truncation.
func TestRecoverDetectsSnapshotCorruption(t *testing.T) {
	corrupt := func(t *testing.T, loc func(*Store) core.LocID) error {
		st := openTest(t, Config{Shards: 1, Capacity: 32, Strategy: MStoreEach, Seed: 31})
		for k := core.Val(0); k < 8; k++ {
			if _, err := st.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		th, err := st.Cluster().NewThread(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.MStore(loc(st), 0); err != nil {
			t.Fatal(err)
		}
		st.Crash(0)
		_, rerr := st.Recover(0)
		return rerr
	}
	t.Run("snapshot-record", func(t *testing.T) {
		err := corrupt(t, func(st *Store) core.LocID { return st.shards[0].snapR(1).loc(2, 2) })
		if !errors.Is(err, ErrDurabilityViolation) {
			t.Fatalf("recover after snapshot corruption: %v, want ErrDurabilityViolation", err)
		}
	})
	t.Run("epoch-record", func(t *testing.T) {
		err := corrupt(t, func(st *Store) core.LocID { return st.shards[0].epochR.loc(1, 2) })
		if !errors.Is(err, ErrDurabilityViolation) {
			t.Fatalf("recover after epoch-record corruption: %v, want ErrDurabilityViolation", err)
		}
	})
}

// TestMigrateAutoCompactsForHeadroom: with auto-compaction on, a bucket
// migration makes its own log headroom — compacting a source whose log
// is at capacity (for the move-out record) and a destination whose log
// is clogged with dead records (for the copies) — instead of failing
// with ShardFullError while reclaimable slots abound.
func TestMigrateAutoCompactsForHeadroom(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 24, CompactAtFill: 1, Strategy: MStoreEach, Seed: 37})
	// Find one key per shard.
	k0 := core.Val(0)
	k1 := core.Val(-1)
	for k := core.Val(1); k < 100; k++ {
		if st.ShardOf(k) != st.ShardOf(k0) {
			k1 = k
			break
		}
	}
	if k1 < 0 {
		t.Fatal("no key pair on distinct shards")
	}
	src, dst := st.ShardOf(k0), st.ShardOf(k1)
	// Fill the source's log to exactly its capacity with overwrites of
	// one key (CompactAtFill=1 defers auto-compaction until a log is
	// full), and clog the destination the same way.
	for i := 0; i < 24; i++ {
		if _, err := st.Put(k0, core.Val(i)+1); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put(k1, core.Val(i)+100); err != nil {
			t.Fatal(err)
		}
	}
	if st.AppendedCount(src) != 24 || st.AppendedCount(dst) != 24 {
		t.Fatalf("logs not at capacity: src %d, dst %d", st.AppendedCount(src), st.AppendedCount(dst))
	}
	// Without headroom-making this migration would need a slot on both
	// full logs; with it, both shards compact and the move goes through.
	b := st.BucketOf(k0)
	if _, err := st.MigrateBucket(b, dst); err != nil {
		t.Fatalf("migration out of a full log: %v", err)
	}
	if st.ShardOf(k0) != dst {
		t.Fatalf("bucket %d not migrated", b)
	}
	if m := st.Metrics(); m.Compactions < 2 {
		t.Fatalf("expected both shards to compact for headroom, got %d compactions", m.Compactions)
	}
	for k, want := range map[core.Val]core.Val{k0: 24, k1: 123} { //cxl0:order-insensitive — independent per-key asserts
		if v, ok, err := st.Get(k); err != nil || !ok || v != want {
			t.Fatalf("get(%d) = (%d,%v,%v), want %d", k, v, ok, err, want)
		}
	}
	// And the migrated state survives a crash sweep.
	for i := 0; i < st.NumShards(); i++ {
		st.Crash(i)
		if _, err := st.Recover(i); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range map[core.Val]core.Val{k0: 24, k1: 123} { //cxl0:order-insensitive — independent per-key asserts
		if v, ok, err := st.Get(k); err != nil || !ok || v != want {
			t.Fatalf("get(%d) = (%d,%v,%v) after crash sweep, want %d", k, v, ok, err, want)
		}
	}
}

// TestCompactCountsWritesInFlight: under the pipeline, the view does not
// count writes still in flight, so compaction counts its live set only
// after the commit that drains the pipeline. Six keys folded into an
// 8-record shard plus four fresh keys in flight make a live set of ten:
// the fold must refuse it, and the shard must still recover the
// six-key snapshot with the four writes on top.
func TestCompactCountsWritesInFlight(t *testing.T) {
	st := openTest(t, Config{Shards: 1, Capacity: 8, Strategy: RangedCommit, Batch: 2, PipelineDepth: 3, Seed: 3})
	for k := core.Val(0); k < 6; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CompactShard(0); err != nil {
		t.Fatal(err)
	}
	for k := core.Val(10); k < 14; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if acked, appended := st.AckedCount(0), st.AppendedCount(0); acked+2 > appended {
		t.Fatalf("%d of %d fresh writes acked before the compaction: too few in flight to test the count", acked, appended)
	}
	_, err := st.CompactShard(0)
	var full *ShardFullError
	if !errors.As(err, &full) || !full.Live || full.Appended != 10 {
		t.Fatalf("CompactShard over 10 live keys in an 8-record shard = %v, want a live-set ShardFullError of 10", err)
	}
	st.Crash(0)
	stats, err := st.Recover(0)
	if err != nil || stats.Snapshot != 6 || stats.Recovered != 4 {
		t.Fatalf("Recover = %+v, %v; want the six-key snapshot and the four writes", stats, err)
	}
	for _, k := range []core.Val{0, 5, 10, 13} {
		if v, ok, err := st.Get(k); err != nil || !ok || v != k+1 {
			t.Fatalf("Get(%d) = %d, %v, %v after recovery, want %d", k, v, ok, err, k+1)
		}
	}
}

// TestMediumWritesStayInTheirRegion: a region refuses a record past its
// end before anything is stored. A snapshot of cap+1 records fails and
// leaves the neighbouring region (the other snapshot half) as it was;
// the ranged flush and the retire refuse a range that runs past the end.
func TestMediumWritesStayInTheirRegion(t *testing.T) {
	const capacity = 8
	st := openTest(t, Config{Shards: 1, Capacity: capacity, Strategy: RangedCommit, Batch: 4, Seed: 3})
	st.mu.Lock()
	defer st.mu.Unlock()
	sh := st.shards[0]
	half, next := sh.snapR(0), sh.snapR(1)
	if half.loc(capacity, 0) != next.loc(0, 0) {
		t.Fatalf("the snapshot halves are not adjacent: slot %d of half 0 is %d, half 1 starts at %d",
			capacity, half.loc(capacity, 0), next.loc(0, 0))
	}
	before, err := next.read(st.worker, 0)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]rec, capacity+1)
	for i := range live {
		live[i] = rec{key: core.Val(i), val: core.Val(100 + i)}
	}
	if err := st.writeSnapshot(sh, 0, live); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("a snapshot of %d records in a %d-record half: %v, want ErrOutOfRange", len(live), capacity, err)
	}
	if after, err := next.read(st.worker, 0); err != nil || after != before {
		t.Fatalf("the next region's first record went from %v to %v (%v)", before, after, err)
	}
	if err := st.flushRange(sh, sh.logR, capacity-1, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("a flush past the log's end: %v, want ErrOutOfRange", err)
	}
	if err := sh.logR.retire(st.worker, capacity, capacity+1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("a retire past the log's end: %v, want ErrOutOfRange", err)
	}
}
