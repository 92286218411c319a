package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cxl0/internal/core"
)

// Property-based crash-recovery testing, mirroring internal/ds's
// property_test idiom: random operation streams with eviction churn and
// injected shard crashes, checked against a pure-Go reference model.
//
// The durability property: after Crash+Recover of a shard, the recovered
// state must equal the replay of a prefix of that shard's operation log
// that contains every acknowledged write — no acknowledged write is ever
// lost, under every persistence strategy and every hardware variant.

// modelOp is one reference-model log entry (val 0 = tombstone).
type modelOp struct{ key, val core.Val }

// replay folds a shard's model log into its expected visible contents.
func replay(log []modelOp) map[core.Val]core.Val {
	m := map[core.Val]core.Val{}
	for _, op := range log {
		if op.val == 0 {
			delete(m, op.key)
		} else {
			m[op.key] = op.val
		}
	}
	return m
}

// checkShard compares shard i's visible contents with the model.
func checkShard(t *testing.T, st *Store, i int, want map[core.Val]core.Val, maxKey core.Val) bool {
	t.Helper()
	for k := core.Val(0); k <= maxKey; k++ {
		if st.ShardOf(k) != i {
			continue
		}
		v, ok, err := st.Get(k)
		if err != nil {
			t.Logf("get(%d): %v", k, err)
			return false
		}
		wv, wok := want[k]
		if ok != wok || (ok && v != wv) {
			t.Logf("get(%d) = (%d,%v), model (%d,%v)", k, v, ok, wv, wok)
			return false
		}
	}
	return true
}

func testCrashRecovery(t *testing.T, strat Strategy, variant core.Variant) {
	const maxKey = 12
	f := func(seed int64, opsRaw []byte) bool {
		st, err := Open(Config{
			Shards:     2,
			Capacity:   256,
			Strategy:   strat,
			Batch:      3,
			Variant:    variant,
			EvictEvery: 2,
			Seed:       seed,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		logs := make([][]modelOp, st.NumShards())
		rng := rand.New(rand.NewSource(seed))
		for i, b := range opsRaw {
			if i > 70 {
				break
			}
			k := core.Val(int(b) % (maxKey + 1))
			shard := st.ShardOf(k)
			switch (b / 16) % 5 {
			case 0, 1:
				v := core.Val(1 + int(b)%90 + i)
				if _, err := st.Put(k, v); err != nil {
					t.Logf("op %d put(%d): %v", i, k, err)
					return false
				}
				logs[shard] = append(logs[shard], modelOp{k, v})
			case 2:
				if _, err := st.Delete(k); err != nil {
					t.Logf("op %d delete(%d): %v", i, k, err)
					return false
				}
				logs[shard] = append(logs[shard], modelOp{k, 0})
			case 3:
				// Visible state must always match the full model log.
				want := replay(logs[shard])
				wv, wok := want[k]
				v, ok, err := st.Get(k)
				if err != nil {
					t.Logf("op %d get(%d): %v", i, k, err)
					return false
				}
				if ok != wok || (ok && v != wv) {
					t.Logf("op %d: get(%d) = (%d,%v), model (%d,%v)", i, k, v, ok, wv, wok)
					return false
				}
			default:
				target := rng.Intn(st.NumShards())
				if rng.Intn(3) == 0 {
					st.Cluster().Churn(4)
					continue
				}
				ackedBefore := st.AckedCount(target)
				st.Crash(target)
				stats, err := st.Recover(target)
				if err != nil {
					t.Logf("op %d recover(%d): %v", i, target, err)
					return false
				}
				if stats.Recovered < ackedBefore {
					t.Logf("op %d: shard %d recovered only %d records, %d were acknowledged",
						i, target, stats.Recovered, ackedBefore)
					return false
				}
				if stats.Recovered > len(logs[target]) {
					t.Logf("op %d: shard %d recovered %d records, only %d ever appended",
						i, target, stats.Recovered, len(logs[target]))
					return false
				}
				// The store truncated its log to the durable (or still
				// visible) prefix; the model follows.
				logs[target] = logs[target][:stats.Recovered]
				if !checkShard(t, st, target, replay(logs[target]), maxKey) {
					t.Logf("op %d: shard %d state diverged after recovery (cut %d)",
						i, target, stats.Recovered)
					return false
				}
			}
		}
		// Final: sync, then every shard must match its full model log.
		if err := st.Sync(); err != nil {
			t.Log(err)
			return false
		}
		for i := range logs {
			if st.AckedCount(i) != len(logs[i]) {
				t.Logf("shard %d: %d acked after Sync, %d appended", i, st.AckedCount(i), len(logs[i]))
				return false
			}
			if !checkShard(t, st, i, replay(logs[i]), maxKey) {
				t.Logf("shard %d final state diverged", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(int64(strat)*31 + int64(variant)))}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			t.Run(fmt.Sprintf("%v/%v", variant, strat), func(t *testing.T) {
				testCrashRecovery(t, strat, variant)
			})
		}
	}
}

// verifyMigrated checks the store's keys against the model after
// migrations and crashes: every acknowledged write must be served with its
// value, deleted keys must stay deleted, and no key may be indexed on more
// than one shard (or on a shard the map does not route it to).
func verifyMigrated(t *testing.T, st *Store, want map[core.Val]core.Val, keys []core.Val) {
	t.Helper()
	for _, k := range keys {
		v, ok, err := st.Get(k)
		if err != nil {
			t.Fatalf("get(%d): %v", k, err)
		}
		wv, wok := want[k]
		if ok != wok || (ok && v != wv) {
			t.Fatalf("get(%d) = (%d,%v), model (%d,%v)", k, v, ok, wv, wok)
		}
		owners := 0
		for i, sh := range st.shards {
			if _, present := sh.view.index[k]; present {
				owners++
				if st.ShardOf(k) != i {
					t.Fatalf("key %d indexed on shard %d but routed to shard %d", k, i, st.ShardOf(k))
				}
			}
		}
		if owners > 1 {
			t.Fatalf("key %d served from %d shards", k, owners)
		}
	}
}

// sweepKeys is the key set of the migration and compaction crash tests:
// four keys in the bucket of each of keys 0..7 (eight buckets of a
// two-shard store), so every bucket a test moves carries several records.
func sweepKeys(st *Store) []core.Val {
	var keys []core.Val
	for k := core.Val(0); k < 8; k++ {
		keys = append(keys, bucketMates(st, k, 4)...)
	}
	return keys
}

// requireMultiRecord fails the test unless bucket b holds at least two
// live keys of want, so a migration of b has a copy on each side of
// StepMidCopy.
func requireMultiRecord(t *testing.T, st *Store, want map[core.Val]core.Val, b int) {
	t.Helper()
	n := 0
	for k := range want { //cxl0:order-insensitive — a count
		if st.BucketOf(k) == b {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("bucket %d holds %d live records, want at least 2", b, n)
	}
}

// migrateSteps and compactSteps are the checkpoints of a bucket migration
// and of a shard compaction, in protocol order; a crash test's seed
// derives from its step's index here.
var (
	migrateSteps = []Step{StepBeforeCopy, StepMidCopy, StepAfterCopy, StepBeforeFlip, StepAfterFlip}
	compactSteps = []Step{
		StepBeforeSnapshot, StepMidSnapshot, StepAfterSnapshot,
		StepBeforeEpoch, StepAfterEpoch, StepAfterReclaim,
	}
)

// testMigrationCrashAt runs one migration with a crash injected at the
// given step (victim: source shard, destination shard, or both) and checks
// that acknowledged writes survive, ownership stays single-shard, and the
// store keeps working — through a repeated migration and one more full
// crash/recover cycle.
func testMigrationCrashAt(t *testing.T, strat Strategy, variant core.Variant, step Step, victim string) {
	st, err := Open(Config{
		Shards:     2,
		Capacity:   512,
		Strategy:   strat,
		Batch:      3,
		Variant:    variant,
		EvictEvery: 2,
		Seed:       int64(strat)*1000 + int64(variant)*100 + int64(slices.Index(migrateSteps, step))*10 + int64(len(victim)),
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := sweepKeys(st)
	want := map[core.Val]core.Val{}
	for _, k := range keys {
		if _, err := st.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 100 + k
	}
	for i := 0; i < len(keys); i += 7 {
		k := keys[i]
		if _, err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Every surviving write above is acknowledged durable from here on.

	// Move the bucket of the first live key.
	b := -1
	for _, k := range keys {
		if _, ok := want[k]; ok {
			b = st.BucketOf(k)
			break
		}
	}
	requireMultiRecord(t, st, want, b)
	from := st.ShardOfBucket(b)
	to := 1 - from

	fired := false
	st.stepHook = func(s Step) {
		if s != step || fired {
			return
		}
		fired = true
		if victim == "src" || victim == "both" {
			st.crashLocked(from)
		}
		if victim == "dst" || victim == "both" {
			st.crashLocked(to)
		}
	}
	_, migErr := st.MigrateBucket(b, to)
	st.stepHook = nil
	if !fired {
		t.Fatalf("hook never fired at %v", step)
	}
	// Aborting (migErr != nil) and completing are both legal outcomes of a
	// mid-migration crash; what must hold afterwards is the contract below.
	for i := range st.shards {
		if st.shards[i].down {
			if _, err := st.Recover(i); err != nil {
				t.Fatalf("recover shard %d (migrate err %v): %v", i, migErr, err)
			}
		}
	}
	verifyMigrated(t, st, want, keys)

	// Mutate the bucket's keys so any orphaned copies the aborted attempt
	// left in a log now hold stale values — if a later replay fails to
	// retire them (the move-in marker's wipe rule), verification catches
	// the resurrection.
	mutated := false
	for _, k := range keys {
		if st.BucketOf(k) != b {
			continue
		}
		if _, ok := want[k]; !ok {
			continue
		}
		if !mutated {
			if _, err := st.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
			mutated = true
			continue
		}
		if _, err := st.Put(k, 900+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 900 + k
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// The service must still migrate and serve: finish moving the bucket
	// (wherever it ended up) to the other shard, then survive one more
	// crash/recover round per shard.
	cur := st.ShardOfBucket(b)
	if _, err := st.MigrateBucket(b, 1-cur); err != nil {
		t.Fatalf("follow-up migration: %v", err)
	}
	verifyMigrated(t, st, want, keys)
	for i := range st.shards {
		st.Crash(i)
		if _, err := st.Recover(i); err != nil {
			t.Fatalf("post-migration recover shard %d: %v", i, err)
		}
	}
	verifyMigrated(t, st, want, keys)
}

// TestMigrationCrashSteps crashes the source shard, the destination shard,
// and both at every checkpoint of a bucket migration, across all six
// persistence strategies and all three hardware variants: acknowledged
// writes must survive and no key may ever be served from two shards.
func TestMigrationCrashSteps(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			for _, step := range migrateSteps {
				for _, victim := range []string{"src", "dst", "both"} {
					t.Run(fmt.Sprintf("%v/%v/%v/%s", variant, strat, step, victim), func(t *testing.T) {
						testMigrationCrashAt(t, strat, variant, step, victim)
					})
				}
			}
		}
	}
}

// TestMigrationRedoFromLog simulates losing the in-memory map flip after
// the migration's commit point (the front-end dying between the durable
// move-out record and the flip, modeled by a panicking hook): recovery of
// the source shard must read the move-out record and complete the flip,
// serving the bucket from the destination's durable copies.
func TestMigrationRedoFromLog(t *testing.T) {
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			st, err := Open(Config{
				Shards: 2, Capacity: 256, Strategy: strat, Batch: 3, Seed: 21, EvictEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := sweepKeys(st)
			want := map[core.Val]core.Val{}
			for _, k := range keys {
				if _, err := st.Put(k, 500+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 500 + k
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			b := st.BucketOf(keys[0])
			requireMultiRecord(t, st, want, b)
			from := st.ShardOfBucket(b)
			to := 1 - from

			st.stepHook = func(s Step) {
				if s == StepBeforeFlip {
					st.crashLocked(from)
					panic("front-end died before the map flip")
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("hook did not panic")
					}
				}()
				st.MigrateBucket(b, to)
			}()
			st.stepHook = nil
			if st.ShardOfBucket(b) != from {
				t.Fatal("map flipped despite the lost flip")
			}
			if _, err := st.Recover(from); err != nil {
				t.Fatal(err)
			}
			if st.ShardOfBucket(b) != to {
				t.Fatalf("recovery did not redo the flip: bucket %d still on shard %d", b, from)
			}
			verifyMigrated(t, st, want, keys)
		})
	}
}

// TestMigrationRedoWithDestinationDown: recovery redoes a lost flip while
// the destination is also down. The destination's index must be rebuilt
// from its mirror anyway — so a Scan over the bucket's keys reports
// ErrShardDown instead of silently omitting acknowledged data — and after
// the destination recovers, every key is served from it.
func TestMigrationRedoWithDestinationDown(t *testing.T) {
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			st, err := Open(Config{
				Shards: 2, Capacity: 256, Strategy: strat, Batch: 3, Seed: 33, EvictEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := sweepKeys(st)
			want := map[core.Val]core.Val{}
			for _, k := range keys {
				if _, err := st.Put(k, 500+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 500 + k
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			b := st.BucketOf(keys[0])
			requireMultiRecord(t, st, want, b)
			from := st.ShardOfBucket(b)
			to := 1 - from

			st.stepHook = func(s Step) {
				if s == StepBeforeFlip {
					st.crashLocked(from)
					st.crashLocked(to)
					panic("front-end died before the map flip, both shards down")
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("hook did not panic")
					}
				}()
				st.MigrateBucket(b, to)
			}()
			st.stepHook = nil

			// Recover only the source: the redo flips the bucket to the
			// still-down destination.
			if _, err := st.Recover(from); err != nil {
				t.Fatal(err)
			}
			if st.ShardOfBucket(b) != to {
				t.Fatalf("recovery did not redo the flip onto the down destination")
			}
			// The bucket's keys are durably owned by the down destination:
			// reads and scans over them must fail loudly, not omit them.
			bucketKey := keys[0]
			if _, _, err := st.Get(bucketKey); !errors.Is(err, ErrShardDown) {
				t.Fatalf("get on redo'd-down shard: %v, want ErrShardDown", err)
			}
			if _, err := st.Scan(bucketKey, bucketKey+1, 0); !errors.Is(err, ErrShardDown) {
				t.Fatalf("scan over redo'd-down shard's key: %v, want ErrShardDown", err)
			}
			if _, err := st.Recover(to); err != nil {
				t.Fatal(err)
			}
			verifyMigrated(t, st, want, keys)
		})
	}
}

// TestMigrationRedoSupersededByLaterWrites pins the one case where a
// durable move-out record must NOT be redone: the migration failed in
// phase 2 (commit record durable, map never flipped — modeled by a
// panicking hook with no machine crash), the source kept serving the
// bucket and acknowledged newer writes, and only then crashed. Redoing
// the flip would resurrect the destination's stale copies over the
// acknowledged values.
func TestMigrationRedoSupersededByLaterWrites(t *testing.T) {
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			st, err := Open(Config{
				Shards: 2, Capacity: 256, Strategy: strat, Batch: 3, Seed: 27, EvictEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := sweepKeys(st)
			want := map[core.Val]core.Val{}
			for _, k := range keys {
				if _, err := st.Put(k, 500+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 500 + k
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			// A bucket with at least two live keys: the supersede must be
			// provable from a single rewritten key while the OTHER keys'
			// survival is what the wipe rule would otherwise destroy.
			rewrite := keys[0]
			b := st.BucketOf(rewrite)
			requireMultiRecord(t, st, want, b)
			from := st.ShardOfBucket(b)

			// Phase-2 failure: move-out durable, flip lost, no crash.
			st.stepHook = func(s Step) {
				if s == StepBeforeFlip {
					panic("phase-2 failure after the commit record")
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("hook did not panic")
					}
				}()
				st.MigrateBucket(b, 1-from)
			}()
			st.stepHook = nil

			// The source keeps serving the bucket and acknowledges ONE
			// newer write after the orphaned marker — every other key of
			// the bucket must survive recovery untouched.
			if _, err := st.Put(rewrite, 700+rewrite); err != nil {
				t.Fatal(err)
			}
			want[rewrite] = 700 + rewrite
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}

			st.Crash(from)
			if _, err := st.Recover(from); err != nil {
				t.Fatal(err)
			}
			if st.ShardOfBucket(b) != from {
				t.Fatalf("recovery redid a superseded flip: bucket %d moved to shard %d", b, st.ShardOfBucket(b))
			}
			verifyMigrated(t, st, want, keys)

			// The bucket must still migrate cleanly afterwards.
			if _, err := st.MigrateBucket(b, 1-from); err != nil {
				t.Fatal(err)
			}
			verifyMigrated(t, st, want, keys)
		})
	}
}

// testCompactionCrashAt runs one shard compaction with a crash injected
// at the given checkpoint and checks the compaction contract: every
// acknowledged write survives (served with its exact value — old state if
// the crash aborted the compaction, identical state if it committed),
// ownership stays single-shard, and the service keeps serving, compacting
// and recovering afterwards.
func testCompactionCrashAt(t *testing.T, strat Strategy, variant core.Variant, step Step) {
	st, err := Open(Config{
		Shards:     2,
		Capacity:   128,
		Strategy:   strat,
		Batch:      3,
		Variant:    variant,
		EvictEvery: 2,
		Seed:       int64(strat)*1000 + int64(variant)*100 + int64(slices.Index(compactSteps, step))*10,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := sweepKeys(st)
	want := map[core.Val]core.Val{}
	for _, k := range keys {
		if _, err := st.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 100 + k
	}
	for i := 0; i < len(keys); i += 7 {
		k := keys[i]
		if _, err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	for i := 1; i < len(keys); i += 5 {
		k := keys[i]
		if _, err := st.Put(k, 200+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 200 + k
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Every surviving write above is acknowledged durable from here on.

	target := st.ShardOf(keys[1])
	fired := false
	st.stepHook = func(s Step) {
		if s != step || fired {
			return
		}
		fired = true
		st.crashLocked(target)
	}
	_, compErr := st.CompactShard(target)
	st.stepHook = nil
	if !fired {
		t.Fatalf("hook never fired at %v", step)
	}
	// Aborting (compErr != nil) and committing are both legal outcomes of
	// a mid-compaction crash; what must hold afterwards is the contract
	// below.
	if st.shards[target].down {
		if _, err := st.Recover(target); err != nil {
			t.Fatalf("recover shard %d (compact err %v): %v", target, compErr, err)
		}
	}
	verifyMigrated(t, st, want, keys)

	// The service must keep serving and compacting: overwrite and delete
	// more keys (so a stale snapshot or log leftover would be caught as a
	// resurrection), compact again, and survive one more crash/recover
	// round per shard.
	for i := 2; i < len(keys); i += 3 {
		k := keys[i]
		if _, ok := want[k]; !ok {
			continue
		}
		if _, err := st.Put(k, 900+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 900 + k
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CompactShard(target); err != nil {
		t.Fatalf("follow-up compaction: %v", err)
	}
	if st.SnapshotEpoch(target) == 0 {
		t.Fatal("no snapshot epoch committed by the follow-up compaction")
	}
	verifyMigrated(t, st, want, keys)
	for i := range st.shards {
		st.Crash(i)
		if _, err := st.Recover(i); err != nil {
			t.Fatalf("post-compaction recover shard %d: %v", i, err)
		}
	}
	verifyMigrated(t, st, want, keys)
}

// TestCompactionCrashSteps crashes the compacting shard at every
// checkpoint of a compaction — before/mid/after the snapshot write,
// before/after the epoch-record commit, after the reclaim — across all
// six persistence strategies and all three hardware variants:
// acknowledged writes must survive, state must resolve to old-or-new
// (never garbage), and the service must keep compacting.
func TestCompactionCrashSteps(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			for _, step := range compactSteps {
				t.Run(fmt.Sprintf("%v/%v/%v", variant, strat, step), func(t *testing.T) {
					testCompactionCrashAt(t, strat, variant, step)
				})
			}
		}
	}
}

// testAutoCompactChurn is the randomized layer over auto-compaction:
// random put/delete/get/crash streams against a capacity-constrained
// store with CompactAtFill set, checked against a reference model that
// tracks, per shard, which writes are committed (required) and which are
// still pending (whose post-crash value may be any prefix state: old or
// new, never garbage). Compactions interleave invisibly — the test's
// assertions are exactly the client-visible contract.
func testAutoCompactChurn(t *testing.T, strat Strategy, variant core.Variant, compactions *uint64) {
	const maxKey = 10
	f := func(seed int64, opsRaw []byte) bool {
		st, err := Open(Config{
			Shards:        2,
			Capacity:      12,
			CompactAtFill: 0.6,
			Strategy:      strat,
			Batch:         3,
			Variant:       variant,
			EvictEvery:    2,
			Seed:          seed,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[core.Val]core.Val{}             // required (committed) state; 0 = absent
		pending := make([][]modelOp, st.NumShards()) // uncommitted writes per shard, in order
		foldPending := func(shard int, k core.Val, upto int) core.Val {
			v := model[k]
			for i, op := range pending[shard] {
				if i >= upto {
					break
				}
				if op.key == k {
					v = op.val
				}
			}
			return v
		}
		commitShard := func(shard int) {
			for _, op := range pending[shard] {
				if op.val == 0 {
					delete(model, op.key)
				} else {
					model[op.key] = op.val
				}
			}
			pending[shard] = nil
		}
		for i, b := range opsRaw {
			if i > 70 {
				break
			}
			k := core.Val(int(b) % (maxKey + 1))
			shard := st.ShardOf(k)
			switch (b / 16) % 5 {
			case 0, 1:
				v := core.Val(1 + int(b)%90 + i)
				ack, err := st.Put(k, v)
				if err != nil {
					t.Logf("op %d put(%d): %v", i, k, err)
					return false
				}
				pending[shard] = append(pending[shard], modelOp{k, v})
				if ack.Durable {
					commitShard(shard)
				}
			case 2:
				ack, err := st.Delete(k)
				if err != nil {
					t.Logf("op %d delete(%d): %v", i, k, err)
					return false
				}
				pending[shard] = append(pending[shard], modelOp{k, 0})
				if ack.Durable {
					commitShard(shard)
				}
			case 3:
				// Visible state is exact: required state plus every pending
				// write applied in order (dirty reads, like an unflushed
				// RStore'd value).
				wv := foldPending(shard, k, len(pending[shard]))
				v, ok, err := st.Get(k)
				if err != nil {
					t.Logf("op %d get(%d): %v", i, k, err)
					return false
				}
				if ok != (wv != 0) || (ok && v != wv) {
					t.Logf("op %d: get(%d) = (%d,%v), model %d", i, k, v, ok, wv)
					return false
				}
			default:
				target := rng.Intn(st.NumShards())
				if rng.Intn(3) == 0 {
					st.Cluster().Churn(4)
					continue
				}
				st.Crash(target)
				if _, err := st.Recover(target); err != nil {
					t.Logf("op %d recover(%d): %v", i, target, err)
					return false
				}
				// Resolve the surviving state: recovery keeps a prefix of
				// the shard's pending writes, so each key must read as the
				// state after some prefix — old or new, never garbage —
				// and whatever it reads is durable (re-persisted) now.
				for k := core.Val(0); k <= maxKey; k++ {
					if st.ShardOf(k) != target {
						continue
					}
					v, ok, err := st.Get(k)
					if err != nil {
						t.Logf("op %d post-recovery get(%d): %v", i, k, err)
						return false
					}
					legal := false
					for upto := 0; upto <= len(pending[target]); upto++ {
						wv := foldPending(target, k, upto)
						if ok == (wv != 0) && (!ok || v == wv) {
							legal = true
							break
						}
					}
					if !legal {
						t.Logf("op %d: key %d = (%d,%v) after recovery matches no prefix state", i, k, v, ok)
						return false
					}
					if ok {
						model[k] = v
					} else {
						delete(model, k)
					}
				}
				pending[target] = nil
			}
		}
		if err := st.Sync(); err != nil {
			t.Log(err)
			return false
		}
		for shard := range pending {
			commitShard(shard)
		}
		for k := core.Val(0); k <= maxKey; k++ {
			v, ok, err := st.Get(k)
			if err != nil {
				t.Logf("final get(%d): %v", k, err)
				return false
			}
			wv, wok := model[k]
			if ok != wok || (ok && v != wv) {
				t.Logf("final: get(%d) = (%d,%v), model (%d,%v)", k, v, ok, wv, wok)
				return false
			}
		}
		*compactions += st.Metrics().Compactions
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(int64(strat)*37 + int64(variant)))}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCompactCrashChurnProperty runs the randomized auto-compaction
// property for every strategy × variant, and requires the runs to have
// actually compacted (the capacity is sized so the streams overflow it).
func TestAutoCompactCrashChurnProperty(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			t.Run(fmt.Sprintf("%v/%v", variant, strat), func(t *testing.T) {
				var compactions uint64
				testAutoCompactChurn(t, strat, variant, &compactions)
				if compactions == 0 {
					t.Fatal("no run auto-compacted; the property never exercised compaction")
				}
			})
		}
	}
}

// testFaultCampaign extends the prefix-state model to campaign faults:
// random operation streams interleaved with fabric partitions (ops
// denied with ErrUnavailable, nothing lost on heal), device degradation
// (cost-only — crashes land while degraded), and correlated whole-blast
// crashes of every shard at one instant, recovered in campaign order
// with partition-heal-then-recover.
func testFaultCampaign(t *testing.T, strat Strategy, variant core.Variant) {
	const maxKey = 12
	f := func(seed int64, opsRaw []byte) bool {
		st, err := Open(Config{
			Shards:     2,
			Capacity:   256,
			Strategy:   strat,
			Batch:      3,
			Variant:    variant,
			EvictEvery: 2,
			Seed:       seed,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		logs := make([][]modelOp, st.NumShards())
		part := make([]bool, st.NumShards())
		anyPart := func() bool { return part[0] || part[1] }
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		// mutate applies one put/delete and folds the outcome into the
		// model. A write to a partitioned shard is denied outright; a
		// write to a healthy shard can still fail with ErrUnavailable
		// when a REMOTE partition blocks the commit (the GPF blast
		// radius) — then batched strategies have already appended the
		// visible, uncommitted record, while per-operation strategies
		// failed before any mutation.
		mutate := func(i int, k, v core.Val) bool {
			shard := st.ShardOf(k)
			var err error
			if v == 0 {
				_, err = st.Delete(k)
			} else {
				_, err = st.Put(k, v)
			}
			switch {
			case part[shard]:
				if !errors.Is(err, ErrUnavailable) {
					t.Logf("op %d: write to partitioned shard %d: %v, want ErrUnavailable", i, shard, err)
					return false
				}
			case err == nil:
				logs[shard] = append(logs[shard], modelOp{k, v})
			case errors.Is(err, ErrUnavailable) && anyPart():
				if strat.Batched() {
					logs[shard] = append(logs[shard], modelOp{k, v})
				}
			default:
				t.Logf("op %d: write(%d): %v", i, k, err)
				return false
			}
			return true
		}
		for i, b := range opsRaw {
			if i > 60 {
				break
			}
			k := core.Val(int(b) % (maxKey + 1))
			shard := st.ShardOf(k)
			switch (b / 16) % 6 {
			case 0, 1:
				if !mutate(i, k, core.Val(1+int(b)%90+i)) {
					return false
				}
			case 2:
				if !mutate(i, k, 0) {
					return false
				}
			case 3:
				// Reads: denied on the partitioned shard, exact on the
				// others — visible state always matches the full model log.
				v, ok, err := st.Get(k)
				if part[shard] {
					if !errors.Is(err, ErrUnavailable) {
						t.Logf("op %d: get on partitioned shard %d: %v, want ErrUnavailable", i, shard, err)
						return false
					}
					continue
				}
				if err != nil {
					t.Logf("op %d get(%d): %v", i, k, err)
					return false
				}
				want := replay(logs[shard])
				wv, wok := want[k]
				if ok != wok || (ok && v != wv) {
					t.Logf("op %d: get(%d) = (%d,%v), model (%d,%v)", i, k, v, ok, wv, wok)
					return false
				}
			case 4:
				target := rng.Intn(st.NumShards())
				if rng.Intn(2) == 0 {
					// Degradation is cost-only: it never changes outcomes,
					// only the simulated clock — later crashes land while
					// degraded.
					st.Degrade(target, float64(1+rng.Intn(8)))
					continue
				}
				if part[target] {
					before := st.AckedCount(target)
					st.Heal(target)
					part[target] = false
					// A heal is instant and lossless: acknowledged state is
					// untouched and everything reads back.
					if st.AckedCount(target) != before {
						t.Logf("op %d: heal changed acked count %d -> %d", i, before, st.AckedCount(target))
						return false
					}
					if !checkShard(t, st, target, replay(logs[target]), maxKey) {
						t.Logf("op %d: shard %d state diverged after heal", i, target)
						return false
					}
				} else {
					st.Partition(target)
					part[target] = true
				}
			default:
				// Correlated blast: every shard crashes at one simulated
				// instant — some possibly degraded, some possibly
				// partitioned. Recovery refuses partitioned shards until
				// they heal, then proceeds in campaign (index) order.
				acked := make([]int, st.NumShards())
				for sh := range acked {
					acked[sh] = st.AckedCount(sh)
				}
				for sh := 0; sh < st.NumShards(); sh++ {
					st.Crash(sh)
				}
				for sh := range part {
					if !part[sh] {
						continue
					}
					if _, err := st.Recover(sh); !errors.Is(err, ErrUnavailable) {
						t.Logf("op %d: recover of partitioned shard %d: %v, want ErrUnavailable", i, sh, err)
						return false
					}
					st.Heal(sh)
					part[sh] = false
				}
				for sh := 0; sh < st.NumShards(); sh++ {
					stats, err := st.Recover(sh)
					if err != nil {
						t.Logf("op %d recover(%d): %v", i, sh, err)
						return false
					}
					if stats.Recovered < acked[sh] {
						t.Logf("op %d: shard %d recovered %d records, %d were acknowledged",
							i, sh, stats.Recovered, acked[sh])
						return false
					}
					if stats.Recovered > len(logs[sh]) {
						t.Logf("op %d: shard %d recovered %d records, only %d ever appended",
							i, sh, stats.Recovered, len(logs[sh]))
						return false
					}
					logs[sh] = logs[sh][:stats.Recovered]
				}
				for sh := range logs {
					if !checkShard(t, st, sh, replay(logs[sh]), maxKey) {
						t.Logf("op %d: shard %d state diverged after correlated recovery", i, sh)
						return false
					}
				}
			}
		}
		// Final: heal lingering partitions, sync, exact match everywhere.
		for sh := range part {
			if part[sh] {
				st.Heal(sh)
				part[sh] = false
			}
		}
		if err := st.Sync(); err != nil {
			t.Log(err)
			return false
		}
		for i := range logs {
			if st.AckedCount(i) != len(logs[i]) {
				t.Logf("shard %d: %d acked after Sync, %d appended", i, st.AckedCount(i), len(logs[i]))
				return false
			}
			if !checkShard(t, st, i, replay(logs[i]), maxKey) {
				t.Logf("shard %d final state diverged", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(int64(strat)*41 + int64(variant)))}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultCampaignProperty sweeps the campaign-extended prefix-state
// model across all six persistence strategies and all three hardware
// variants.
func TestFaultCampaignProperty(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			t.Run(fmt.Sprintf("%v/%v", variant, strat), func(t *testing.T) {
				testFaultCampaign(t, strat, variant)
			})
		}
	}
}

// testApplyCorrelatedCrash crashes BOTH shards at one simulated instant
// in the middle of a client batch Apply: the batch must resolve per key
// to old-or-new (never garbage, never a torn value), the pre-batch
// acknowledged state must survive untouched, and re-applying the batch
// afterwards must complete it.
func testApplyCorrelatedCrash(t *testing.T, strat Strategy, variant core.Variant, at int) {
	const maxKey = 20
	st, err := Open(Config{
		Shards:     2,
		Capacity:   256,
		Strategy:   strat,
		Batch:      3,
		Variant:    variant,
		EvictEvery: 2,
		Seed:       int64(strat)*100 + int64(variant)*10 + int64(at),
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := core.Val(0); k <= maxKey; k++ {
		if _, err := st.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	b := &Batch{}
	for k := core.Val(0); k <= maxKey; k += 2 {
		b.Put(k, 300+k)
	}
	fired := false
	st.applyHook = func(i int) {
		if i != at || fired {
			return
		}
		fired = true
		// The whole blast radius at one instant, mid-batch.
		st.crashLocked(0)
		st.crashLocked(1)
	}
	_, applyErr := st.Apply(b)
	st.applyHook = nil
	if !fired {
		t.Fatalf("apply hook never fired at op %d", at)
	}
	if !errors.Is(applyErr, ErrShardDown) {
		t.Fatalf("mid-batch correlated crash: Apply returned %v, want ErrShardDown", applyErr)
	}
	for i := range st.shards {
		if st.shards[i].down {
			if _, err := st.Recover(i); err != nil {
				t.Fatalf("recover shard %d: %v", i, err)
			}
		}
	}
	// Old-or-new per key: batch keys read 100+k or 300+k, others exactly
	// 100+k.
	for k := core.Val(0); k <= maxKey; k++ {
		v, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("get(%d) after correlated mid-batch crash: (%d,%v,%v)", k, v, ok, err)
		}
		if k%2 == 0 {
			if v != 100+k && v != 300+k {
				t.Fatalf("key %d = %d after crash, want old %d or new %d", k, v, 100+k, 300+k)
			}
		} else if v != 100+k {
			t.Fatalf("non-batch key %d = %d, pre-batch acknowledged value %d destroyed", k, v, 100+k)
		}
	}
	// The service completes the batch on retry.
	if ack, err := st.Apply(b); err != nil || !ack.Durable {
		t.Fatalf("re-apply after recovery: ack %+v err %v", ack, err)
	}
	for k := core.Val(0); k <= maxKey; k += 2 {
		if v, ok, _ := st.Get(k); !ok || v != 300+k {
			t.Fatalf("key %d = %d after re-apply, want %d", k, v, 300+k)
		}
	}
}

// TestApplyCorrelatedCrash sweeps the mid-Apply correlated double-crash
// over early/mid/late batch positions for every strategy and variant.
func TestApplyCorrelatedCrash(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			for _, at := range []int{0, 4, 9} {
				t.Run(fmt.Sprintf("%v/%v/at%d", variant, strat, at), func(t *testing.T) {
					testApplyCorrelatedCrash(t, strat, variant, at)
				})
			}
		}
	}
}

// TestRecoveryAfterDoubleCrash exercises the log-truncation path: a crash
// with unacknowledged pending writes, recovery, more writes reusing the
// truncated slots, and a second crash — stale records from the first
// incarnation must never resurrect.
func TestRecoveryAfterDoubleCrash(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		t.Run(variant.String(), func(t *testing.T) {
			st, err := Open(Config{
				Shards: 1, Capacity: 64, Strategy: GroupCommit, Batch: 8,
				Variant: variant, EvictEvery: 2, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Acked batch, then unacked pending writes.
			for k := core.Val(0); k < 8; k++ {
				if _, err := st.Put(k, 100+k); err != nil {
					t.Fatal(err)
				}
			}
			for k := core.Val(20); k < 23; k++ {
				if _, err := st.Put(k, 200+k); err != nil {
					t.Fatal(err)
				}
			}
			st.Crash(0)
			stats, err := st.Recover(0)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Recovered < 8 {
				t.Fatalf("recovered %d, the 8 acknowledged writes must survive", stats.Recovered)
			}
			// Overwrite the reclaimed slots with different records.
			for k := core.Val(40); k < 43; k++ {
				if _, err := st.Put(k, 300+k); err != nil {
					t.Fatal(err)
				}
			}
			st.Crash(0)
			if _, err := st.Recover(0); err != nil {
				t.Fatal(err)
			}
			for k := core.Val(0); k < 8; k++ {
				v, ok, err := st.Get(k)
				if err != nil || !ok || v != 100+k {
					t.Fatalf("acked key %d = (%d,%v,%v) after double crash", k, v, ok, err)
				}
			}
			for k := core.Val(20); k < 23; k++ {
				if v, ok, _ := st.Get(k); ok && v != 200+k {
					t.Fatalf("key %d resurrected with corrupt value %d", k, v)
				}
			}
		})
	}
}
