// Package kvtest is the reusable conformance suite for the kv.DB
// contract: any implementation — the single-cluster *kv.Store, the pooled
// pool.Router, or a future one — must pass Run. The cases pin the parts
// of the contract a client may rely on across implementations:
//
//   - the acknowledgment discipline (Ack.Durable at return for the
//     per-operation strategies, at the commit point for the batched ones,
//     with pending writes visible before durable),
//   - Apply's one-Ack-at-commit-point batch semantics,
//   - Scan's global key ordering and limit handling,
//   - MultiGet's input-order results,
//   - Sync as a universal commit point, and
//   - crash/recovery visibility: a recovery keeps a prefix of each
//     shard's log that holds every acknowledged write, and
//   - fault-campaign visibility: the crash/partition/degrade error
//     taxonomy (ErrShardDown vs ErrUnavailable vs cost-only), partial
//     results for partitioned fan-outs, lossless heals, and the same
//     prefix rule under correlated whole-service crashes.
//
// The suites that check visibility hold every write, read, Apply, Sync
// and recovery to kvspec, the spec of what a client may see, through one
// checked DB (checked.go) instead of restating its rules inline. Program
// (program.go) runs byte programs, a fuzzer's inputs, through the same
// checked DB.
//
// The suite deliberately avoids implementation-shaped assertions (shard
// placement, exact commit counts, busy-time accounting): those belong to
// the implementations' own tests.
package kvtest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/faults"
	"cxl0/internal/kv"
	"cxl0/internal/kv/kvspec"
	"cxl0/internal/obs"
)

// Factory returns a fresh, empty DB built over the given per-cluster
// store configuration. Implementations with more topology (e.g. a pooled
// router's cluster count) fix the extra dimensions inside the factory.
type Factory func(t *testing.T, cfg kv.Config) kv.DB

// OpenStore is the Factory of single-cluster stores.
func OpenStore(t *testing.T, cfg kv.Config) kv.DB {
	t.Helper()
	st, err := kv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Run exercises the full kv.DB contract against DBs produced by f.
func Run(t *testing.T, f Factory) {
	t.Run("AckDurability", func(t *testing.T) { testAckDurability(t, f) })
	t.Run("ApplyBatch", func(t *testing.T) { testApplyBatch(t, f) })
	t.Run("ScanLimitOrdering", func(t *testing.T) { testScanLimitOrdering(t, f) })
	t.Run("MultiGet", func(t *testing.T) { testMultiGet(t, f) })
	t.Run("SyncCommits", func(t *testing.T) { testSyncCommits(t, f) })
	t.Run("CrashRecoverVisibility", func(t *testing.T) { testCrashRecoverVisibility(t, f) })
	t.Run("PipelinedAckOrder", func(t *testing.T) { testPipelinedAckOrder(t, f) })
	t.Run("CachedReadVisibility", func(t *testing.T) { testCachedReadVisibility(t, f) })
	t.Run("FaultCampaignVisibility", func(t *testing.T) { testFaultCampaignVisibility(t, f) })
	t.Run("CompactVisibility", func(t *testing.T) { testCompactVisibility(t, f) })
	t.Run("AutoCompactCapacity", func(t *testing.T) { testAutoCompactCapacity(t, f) })
	t.Run("BadArguments", func(t *testing.T) { testBadArguments(t, f) })
	t.Run("ObservabilityAgreement", func(t *testing.T) { testObservabilityAgreement(t, f) })
	t.Run("MetricsSnapshotStable", func(t *testing.T) { testMetricsSnapshotStable(t, f) })
	t.Run("MetricsConcurrent", func(t *testing.T) { testMetricsConcurrent(t, f) })
	t.Run("DeterministicReplay", func(t *testing.T) { DeterministicReplay(t, f) })
}

func cfgFor(strat kv.Strategy) kv.Config {
	return kv.Config{Shards: 2, Strategy: strat, Batch: 4, Capacity: 512, Seed: 21, EvictEvery: 3}
}

// crashRecoverAll cycles every shard of the service through one
// crash+recover.
func crashRecoverAll(t *testing.T, db kv.DB) {
	t.Helper()
	for i := 0; i < db.NumShards(); i++ {
		db.Crash(i)
		if _, err := db.Recover(i); err != nil {
			t.Fatalf("recover shard %d: %v", i, err)
		}
	}
}

// testAckDurability pins the ack discipline: per-operation strategies
// acknowledge at return, batched ones at the commit point — and a
// pending batched write is visible (dirty-read semantics) before it is
// durable.
func testAckDurability(t *testing.T, f Factory) {
	for _, strat := range kv.Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			db := check(t, f, cfgFor(strat))
			const n = 10
			sawPending := false
			for k := core.Val(0); k < n; k++ {
				ack, err := db.Put(k, k+1)
				if err != nil || !strat.Batched() && !ack.Durable {
					t.Fatalf("put %d under %v: %+v, %v; want no error and, per operation, an ack at return", k, strat, ack, err)
				}
				sawPending = sawPending || !ack.Durable
				db.Get(k) // visible before durable
			}
			if strat.Batched() && !sawPending {
				t.Fatalf("%v acked every write at return; batched strategies must defer", strat)
			}
			db.sync()
			if m := db.Metrics(); m.Acked != n {
				t.Fatalf("acked = %d after sync, want %d", m.Acked, n)
			}
		})
	}
}

// testPipelinedAckOrder pins the asynchronous commit pipeline's client
// contract (Config.PipelineDepth > 1 with a batched strategy): no write
// is durable at return; reads respect the acked watermark — a freshly
// overwritten key keeps serving its last acknowledged value until the
// overwrite's batch commits; acks fire in batch order at their batches'
// commit points; Sync drains every in-flight flush; and a whole-service
// crash with flushes in flight recovers at least the acked prefix.
func testPipelinedAckOrder(t *testing.T, f Factory) {
	for _, strat := range []kv.Strategy{kv.GroupCommit, kv.RangedCommit} {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := cfgFor(strat)
			cfg.PipelineDepth = 3
			db := check(t, f, cfg)
			bus := obs.NewBus(obs.DefaultBusSize)
			sub := bus.Subscribe()
			db.Observe(obs.NewRecorder(bus, nil))

			const n = 48
			for k := core.Val(0); k < n; k++ {
				if ack, err := db.Put(k, 1000+k); err != nil || ack.Durable {
					t.Fatalf("pipelined put %d: %+v, %v; want no error and no ack at return", k, ack, err)
				}
			}
			db.sync()
			m := db.Metrics()
			if m.Acked != n {
				t.Fatalf("acked = %d after sync, want %d", m.Acked, n)
			}
			for i, inflight := range m.PerShardInFlight {
				if inflight != 0 {
					t.Fatalf("shard %d still has %d flushes in flight after Sync", i, inflight)
				}
			}
			if m.PipelinedCommits == 0 {
				t.Fatal("no commit flush went through the pipeline")
			}

			// The watermark gate, deterministically: Sync left every open
			// batch empty, so this one overwrite sits unacknowledged in a
			// fresh open batch — reads keep serving the acked value.
			if ack, err := db.Put(0, 9000); err != nil || ack.Durable {
				t.Fatalf("overwrite in a fresh batch: %+v, %v", ack, err)
			}
			db.get(0, 1000)
			if pairs, _ := db.Scan(0, 1, 10); len(pairs) != 1 || pairs[0].Val != 1000 {
				t.Fatalf("watermark scan = %+v, want [{0 1000}]", pairs)
			}
			db.sync()
			db.get(0, 9000)

			// Overwrite everything and crash with flushes in flight:
			// recovery keeps at least the acked prefix.
			for k := core.Val(0); k < n; k++ {
				db.put(k, 5000+k)
			}
			// Only the ranged strategy is guaranteed to stack depth: a GPF
			// occupies the whole fabric, so any shard's global flush
			// advances every other shard's busy clock past its in-flight
			// completion points — global fences serialize the pipeline.
			if strat == kv.RangedCommit {
				if got := db.Metrics().MaxInFlight; got < 2 {
					t.Fatalf("max in-flight depth = %d; the pipeline never overlapped flushes", got)
				}
			}
			db.readAll(n)
			ackedBefore := db.Metrics().Acked
			crashRecoverAll(t, db)
			if got := db.Metrics().Acked; got < ackedBefore {
				t.Fatalf("recovery lost acknowledged writes: %d -> %d", ackedBefore, got)
			}
			db.readAll(n)

			// Commit events carry the pipeline telemetry: depth within
			// [1, PipelineDepth], and per shard the commit points — each
			// batch's ack time — never regress: acks fire in batch order.
			lastEnd := map[int]float64{}
			commits := 0
			for _, e := range sub.Poll(0) {
				if e.Kind != obs.KindCommit {
					continue
				}
				commits++
				if e.Depth < 1 || e.Depth > cfg.PipelineDepth {
					t.Fatalf("commit depth %d outside [1, %d]", e.Depth, cfg.PipelineDepth)
				}
				if e.EndNS < lastEnd[e.Shard] {
					t.Fatalf("shard %d commit point %g regressed below %g", e.Shard, e.EndNS, lastEnd[e.Shard])
				}
				lastEnd[e.Shard] = e.EndNS
			}
			if commits == 0 {
				t.Fatal("no commit events observed")
			}
		})
	}
}

// testCachedReadVisibility pins the node-local read cache's coherence
// contract (kv.Config.ReadCache > 0, with the prefetcher on): a cached
// read is indistinguishable from an uncached one — every read, the
// second of a pair (the cached path when the first filled) included, is
// what kvspec says, through Put/Delete/Apply, compaction, a crash/recovery
// sweep whose eviction churn forces the cache to refill from the store (a
// stale survivor would read backwards in time) and partition/heal; under
// the pipelined batched strategies at K ∈ {2, 4} a cached value tracks
// the acked watermark — never a value a crash could take back. Last, a
// rebalance moves no key's value, nor does a crash sweep or a
// partition/heal after it.
func testCachedReadVisibility(t *testing.T, f Factory) {
	for _, strat := range kv.Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := cfgFor(strat)
			// A tiny cache: eviction churn keeps the checks honest — a
			// stale entry cannot hide behind an LRU that never refills
			// from the store.
			cfg.ReadCache = 8
			cfg.Prefetch = true
			db := check(t, f, cfg)
			const n = 24
			expect := func() {
				db.readAll(n)
				db.readAll(n)
			}

			// Read-your-writes through every write operation.
			for k := core.Val(0); k < n; k++ {
				db.put(k, 100+k)
			}
			expect()
			for k := core.Val(0); k < 6; k++ {
				db.put(k, 200+k)
			}
			expect()
			if _, err := db.Delete(2); err != nil {
				t.Fatal(err)
			}
			if _, err := db.apply(kvspec.Rec{Key: 3, Val: 333}, kvspec.Rec{Key: 4}); err != nil {
				t.Fatal(err)
			}
			expect()
			db.sync()
			if _, err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			expect()

			// Crash/recovery: overwrite a few keys unsynced (under the
			// batched strategies some are unacknowledged), sweep every
			// shard, read, churn the tiny LRU dry, and read again.
			for k := core.Val(8); k < 14; k++ {
				db.put(k, 500+k)
				db.Get(k)
			}
			crashRecoverAll(t, db)
			db.readAll(n)
			expect()

			// Partition/heal: denied reads are denied, healed reads exact.
			db.Partition(0)
			db.readAll(n)
			db.Heal(0)
			expect()

			// A rebalance moves buckets between shards, which the spec
			// cannot follow, so the DB is read bare from here on. Every
			// write is durable by now: the move, a crash sweep after it
			// (the cache refilling from moved buckets) and a partition
			// leave each key as the spec has it.
			if _, err := db.Rebalance(); err != nil {
				t.Fatal(err)
			}
			bare := func(stage string, partitioned bool) {
				t.Helper()
				for k := core.Val(0); k < 2*n; k++ {
					v, ok, err := db.DB.Get(k % n)
					if partitioned && errors.Is(err, kv.ErrUnavailable) && !errors.Is(err, kv.ErrShardDown) {
						continue
					}
					if want, _ := db.spec.Get(k % n); err != nil || (kvspec.Lookup{Key: k % n, Val: v, Found: ok}) != want {
						t.Fatalf("%s get %d = (%d, %v, %v), want %+v", stage, k%n, v, ok, err, want)
					}
				}
			}
			bare("rebalanced", false)
			crashRecoverAll(t, db.DB)
			bare("recovered", false)
			db.DB.Partition(0)
			bare("partitioned", true)
			db.DB.Heal(0)
			bare("healed", false)
		})
	}

	// Watermark gating under the commit pipeline: the cached copy of a
	// key must flip to an overwrite only when the overwrite's batch
	// retires (its flush is acknowledged) — the same instant the uncached
	// read path flips.
	for _, strat := range []kv.Strategy{kv.GroupCommit, kv.RangedCommit} {
		for _, depth := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/K%d", strat, depth), func(t *testing.T) {
				cfg := cfgFor(strat)
				cfg.PipelineDepth = depth
				cfg.ReadCache = 32
				cfg.Prefetch = true
				db := check(t, f, cfg)
				const n = 16
				for k := core.Val(0); k < n; k++ {
					db.put(k, 1000+k)
				}
				db.sync()
				db.readAll(n) // warm the cache on acked values
				// One unacknowledged overwrite in a fresh open batch: both
				// the cached and uncached path keep serving the acked value
				// until Sync retires it.
				if ack, err := db.Put(0, 9000); err != nil || ack.Durable {
					t.Fatalf("overwrite in a fresh batch: %+v, %v", ack, err)
				}
				db.get(0, 1000)
				db.get(0, 1000)
				db.sync()
				db.get(0, 9000)
				db.get(0, 9000)
				// Streamed overwrites with reads interleaved, then drained.
				for k := core.Val(0); k < n; k++ {
					db.put(k, 5000+k)
					db.Get(k)
				}
				db.sync()
				db.readAll(n)
				db.readAll(n)
			})
		}
	}
}

// testApplyBatch pins Apply's contract: ops apply in order, the batch is
// acknowledged with one Ack at its commit point, and on success the whole
// batch is durable under every strategy — proven by crashing every shard
// and finding all of it again.
func testApplyBatch(t *testing.T, f Factory) {
	for _, strat := range kv.Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			db := check(t, f, cfgFor(strat))
			const n = 12
			var ops []kvspec.Rec
			for k := core.Val(0); k < n; k++ {
				ops = append(ops, kvspec.Rec{Key: k, Val: k + 100})
			}
			ops = append(ops,
				kvspec.Rec{Key: 3, Val: 333}, // overwrite inside the batch: last write wins
				kvspec.Rec{Key: 5},           // put-then-delete inside the batch: deleted
				kvspec.Rec{Key: n, Val: 777}, // a fresh key at the end
				kvspec.Rec{Key: 9999})        // deleting an absent key is legal
			ack, err := db.apply(ops...)
			if err != nil {
				t.Fatal(err)
			}
			if !ack.Durable {
				t.Fatalf("apply returned non-durable ack %+v under %v", ack, strat)
			}
			db.readAll(n + 1)
			// The commit point has passed: the batch survives every shard
			// crashing.
			crashRecoverAll(t, db)
			db.readAll(n + 1)
			if m := db.Metrics(); m.Batches == 0 {
				t.Fatal("Apply not counted in Metrics.Batches")
			}
			// An empty batch is a durable no-op.
			if ack, err := db.apply(); err != nil || !ack.Durable {
				t.Fatalf("empty apply: %+v, %v", ack, err)
			}
		})
	}
}

// testScanLimitOrdering pins Scan: results in global key order, half-open
// range, limit keeps the smallest keys, limit 0 means unlimited.
func testScanLimitOrdering(t *testing.T, f Factory) {
	db := check(t, f, cfgFor(kv.RangedCommit))
	const n = 30
	// Insert in a scattered order so result order cannot be insertion
	// order by accident.
	for i := 0; i < n; i++ {
		k := core.Val((i * 17) % n)
		db.put(k, k+1)
	}
	db.sync()
	if pairs, _ := db.Scan(5, 25, 0); len(pairs) != 20 {
		t.Fatalf("scan [5,25) returned %d pairs, want 20", len(pairs))
	}
	db.Scan(5, 25, 6)
	db.Scan(100, 200, 0)
}

// testMultiGet pins MultiGet: one result per key, in input order,
// including misses and repeats.
func testMultiGet(t *testing.T, f Factory) {
	db := check(t, f, cfgFor(kv.StoreFlush))
	for k := core.Val(0); k < 20; k++ {
		db.put(k, k*2+1)
	}
	db.MultiGet([]core.Val{13, 999, 2, 13, 0})
	db.MultiGet(nil)
}

// testSyncCommits pins Sync as the universal commit point: after Sync
// returns, every prior write is acknowledged durable and survives a full
// crash/recovery sweep.
func testSyncCommits(t *testing.T, f Factory) {
	for _, strat := range []kv.Strategy{kv.GroupCommit, kv.RangedCommit, kv.MStoreEach} {
		t.Run(strat.String(), func(t *testing.T) {
			db := check(t, f, cfgFor(strat))
			const n = 7 // not a multiple of Batch: a batch stays open
			for k := core.Val(0); k < n; k++ {
				db.put(k, k+50)
			}
			db.sync()
			if m := db.Metrics(); m.Acked != n {
				t.Fatalf("acked = %d after sync, want %d", m.Acked, n)
			}
			crashRecoverAll(t, db)
			db.readAll(n)
		})
	}
}

// testCrashRecoverVisibility pins the durability invariant under every
// strategy: every shard crashing and recovering keeps a prefix of its log
// that holds every acknowledged write, and reads as exactly that prefix.
func testCrashRecoverVisibility(t *testing.T, f Factory) {
	for _, strat := range kv.Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			db := check(t, f, cfgFor(strat))
			const n = 16
			for k := core.Val(0); k < n; k++ {
				db.put(k, 1000+k)
			}
			db.sync()
			// Overwrite a few keys without syncing: under the batched
			// strategies some of these are unacknowledged when the crash
			// hits.
			for k := core.Val(0); k < 6; k++ {
				db.put(k, 2000+k)
			}
			crashRecoverAll(t, db)
			db.readAll(n)
			// Recovering an up shard is a no-op.
			if stats, err := db.Recover(0); err != nil || stats.Recovered != 0 {
				t.Fatalf("recover of an up shard: %+v, %v", stats, err)
			}
			// The rebalancer is part of the surface: a call must not error
			// on a healthy service.
			if _, err := db.Rebalance(); err != nil {
				t.Fatalf("rebalance on healthy service: %v", err)
			}
		})
	}
}

// testFaultCampaignVisibility pins the fault-campaign surface of the
// contract: a partitioned shard denies with ErrUnavailable (never
// ErrShardDown — a partition loses nothing), fan-outs over a partition
// degrade to the partial result kvspec states, heals are instant and
// lossless, degradation is cost-only, and a correlated crash of every
// shard — driven through the campaign engine — keeps a prefix of every
// shard's log that holds its acknowledged writes.
func testFaultCampaignVisibility(t *testing.T, f Factory) {
	for _, strat := range kv.Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			db := check(t, f, cfgFor(strat))
			const n = 24
			keys := make([]core.Val, n)
			for k := core.Val(0); k < n; k++ {
				db.put(k, 1000+k)
				keys[k] = k
			}
			db.sync()

			// Partition the shard key 0's writes were acknowledged by:
			// reads of its keys are denied, fan-outs degrade.
			target := db.home[0]
			db.Partition(target)
			h := db.Health()
			if len(h) != db.NumShards() || !h[target].Partitioned || h[target].Down {
				t.Fatalf("health does not report the partition: %+v", h[target])
			}
			db.readAll(n)
			if _, err := db.MultiGet(keys); err == nil {
				t.Fatal("a MultiGet over a partitioned shard withheld nothing")
			}
			db.Scan(0, n, 0)

			// Recover of an up-but-partitioned shard stays the up-shard
			// no-op; but a shard that dies BEHIND its partition cannot
			// recover until the fabric heals — partition-heal-then-recover
			// is the only order.
			if stats, err := db.Recover(target); err != nil || stats.Recovered != 0 {
				t.Fatalf("recover of an up partitioned shard: %+v, %v, want no-op", stats, err)
			}
			db.Crash(target)
			if _, err := db.Recover(target); !errors.Is(err, kv.ErrUnavailable) {
				t.Fatalf("recover of a crashed shard behind a partition: %v, want ErrUnavailable", err)
			}
			db.Heal(target)
			if _, err := db.Recover(target); err != nil {
				t.Fatalf("recover after heal: %v", err)
			}
			if h := db.Health()[target]; h.Partitioned {
				t.Fatalf("heal did not clear the partition: %+v", h)
			}
			db.MultiGet(keys)

			// Degradation is cost-only: reported in health, never an error.
			db.Degrade(target, 8)
			if got := db.Health()[target].DegradeFactor; got != 8 {
				t.Fatalf("degrade factor %g, want 8", got)
			}
			db.readAll(n)
			db.Degrade(target, 1)

			// Correlated whole-service crash, driven through the campaign
			// engine: overwrite a few keys (some unacknowledged under the
			// batched strategies), blast every shard at one instant, recover
			// in campaign order.
			for k := core.Val(0); k < 6; k++ {
				db.put(k, 2000+k)
			}
			all := make([]int, db.NumShards())
			for i := range all {
				all[i] = i
			}
			eng := faults.New(db, &faults.Campaign{Name: "conformance", Events: []faults.Event{
				{At: 0, Action: faults.Crash, Shards: all},
				{At: 1, Action: faults.Recover, Shards: all},
			}})
			if err := eng.Step(0); err != nil {
				t.Fatal(err)
			}
			// Crashed is not partitioned: fan-outs fail whole (unacked data
			// may be lost — a partial answer could be wrong), with
			// ErrShardDown.
			var partial *kv.PartialResultError
			if _, err := db.MultiGet(keys); !errors.Is(err, kv.ErrShardDown) {
				t.Fatalf("MultiGet over a crashed service: %v, want ErrShardDown", err)
			} else if errors.As(err, &partial) {
				t.Fatalf("crash produced a partial result: %v — only partitions degrade", err)
			}
			if err := eng.Step(1); err != nil {
				t.Fatal(err)
			}
			if s := eng.Stats(); s.Crashes != len(all) || s.Recoveries != len(all) {
				t.Fatalf("engine stats %+v, want %d crashes and recoveries", s, len(all))
			}
			db.readAll(n)
		})
	}
}

// testCompactVisibility pins Compact's contract: visibility is unchanged
// across a compaction, the compacted state survives a full crash/recovery
// sweep, and the compaction metrics (Compactions, ReclaimedSlots) are
// live and monotonic.
func testCompactVisibility(t *testing.T, f Factory) {
	for _, strat := range kv.Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			db := check(t, f, cfgFor(strat))
			const n = 24
			for k := core.Val(0); k < n; k++ {
				db.put(k, 100+k)
			}
			for k := core.Val(0); k < n; k += 4 {
				if _, err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			for k := core.Val(1); k < n; k += 4 {
				db.put(k, 300+k)
			}
			db.sync()
			db.readAll(n)

			stats, err := db.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if len(stats) == 0 {
				t.Fatal("Compact did nothing on a service with appended logs")
			}
			reclaimed := 0
			for _, cs := range stats {
				reclaimed += cs.Reclaimed
			}
			// n/4 deletes (each retiring a put and itself) and (n/4 - 1)
			// effective overwrites guarantee dead records existed.
			if reclaimed == 0 {
				t.Fatal("compaction reclaimed nothing despite deletes and overwrites")
			}
			db.readAll(n)

			m1 := db.Metrics()
			if m1.Compactions == 0 || m1.ReclaimedSlots == 0 {
				t.Fatalf("compaction metrics dead: %d compactions, %d reclaimed", m1.Compactions, m1.ReclaimedSlots)
			}

			// The compacted state is durable.
			crashRecoverAll(t, db)
			db.readAll(n)

			// Metrics are monotonic across further churn and compactions.
			for k := core.Val(0); k < n; k += 4 {
				db.put(k, 700+k)
			}
			db.sync()
			if _, err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			m2 := db.Metrics()
			if m2.Compactions < m1.Compactions || m2.ReclaimedSlots < m1.ReclaimedSlots {
				t.Fatalf("compaction metrics went backwards: %+v -> %+v", m1, m2)
			}
			if m2.Compactions == m1.Compactions {
				t.Fatal("second Compact with a dirty log did not compact")
			}
		})
	}
}

// testAutoCompactCapacity pins the CompactAtFill contract: a workload
// writing far more records than Shards × Capacity completes without
// ShardFullError as long as the live set fits, and the error — still
// matching errors.Is(err, ErrShardFull) through any wrapping — returns
// once live data truly exceeds capacity.
func testAutoCompactCapacity(t *testing.T, f Factory) {
	for _, strat := range kv.Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			db := check(t, f, kv.Config{
				Shards: 2, Capacity: 24, CompactAtFill: 0.75,
				Strategy: strat, Batch: 4, Seed: 41, EvictEvery: 3,
			})
			const keys = 16
			total := db.NumShards() * 24
			rounds := 2*total/keys + 2 // writes ≈ 2 × the service's total log capacity
			for r := 0; r < rounds; r++ {
				for k := core.Val(0); k < keys; k++ {
					db.put(k, core.Val(r)*100+k+1)
				}
			}
			db.sync()
			m := db.Metrics()
			if m.Compactions == 0 || m.ReclaimedSlots == 0 {
				t.Fatalf("no compactions after %d writes through %d total slots", rounds*keys, total)
			}
			db.readAll(keys)
			// The survivors stay durable through a crash sweep.
			crashRecoverAll(t, db)
			db.readAll(keys)

			// Fresh keys grow the live set; once some shard's live records
			// exceed its capacity no fold can fit and the error must
			// surface, diagnosable as ever.
			var lastErr error
			for k := core.Val(1000); k < core.Val(1000+4*total) && lastErr == nil; k++ {
				_, lastErr = db.Put(k, 1)
			}
			if !errors.Is(lastErr, kv.ErrShardFull) {
				t.Fatalf("live set beyond capacity: got %v, want ErrShardFull", lastErr)
			}
			var full *kv.ShardFullError
			if !errors.As(lastErr, &full) {
				t.Fatalf("error does not carry *kv.ShardFullError: %v", lastErr)
			}
		})
	}
}

// testBadArguments pins argument validation across the surface.
func testBadArguments(t *testing.T, f Factory) {
	db := f(t, cfgFor(kv.MStoreEach))
	if _, err := db.Put(-1, 5); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("negative key put: %v", err)
	}
	if _, err := db.Put(1, 0); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("zero value put: %v", err)
	}
	if _, _, err := db.Get(-2); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("negative key get: %v", err)
	}
	if _, err := db.MultiGet([]core.Val{1, -3}); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("negative key multiget: %v", err)
	}
	if _, err := db.Apply(new(kv.Batch).Put(-1, 1)); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("negative key apply: %v", err)
	}
	// A zero-value put in a batch is invalid input — it must fail exactly
	// like Store.Put(k, 0) does, not silently apply as a delete.
	if _, err := db.Put(5, 50); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(new(kv.Batch).Put(5, 0)); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("zero-value put in batch: %v", err)
	}
	if v, ok, err := db.Get(5); err != nil || !ok || v != 50 {
		t.Fatalf("rejected batch still mutated key 5: (%d, %v, %v)", v, ok, err)
	}
	if _, err := db.Delete(-1); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("negative key delete: %v", err)
	}
	for _, i := range []int{-1, db.NumShards()} {
		if _, err := db.Recover(i); !errors.Is(err, kv.ErrOutOfRange) {
			t.Fatalf("recover shard %d: %v, want ErrOutOfRange", i, err)
		}
	}
}

// testObservabilityAgreement pins the event/metrics contract across the
// DB surface: over a crash-churn run with a periodically drained
// subscriber, the summed client acks carried on op-span, commit and
// recover events equal Metrics.Acked; completed-checkpoint events match
// the Migrations, Compactions and Recoveries counters; and the default
// bus size loses nothing when the consumer keeps up.
func testObservabilityAgreement(t *testing.T, f Factory) {
	for _, strat := range []kv.Strategy{kv.GroupCommit, kv.RangedCommit, kv.MStoreEach} {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := cfgFor(strat)
			// Small logs + auto-compaction so the churn below compacts
			// repeatedly even when a pooled factory spreads the writes
			// across several clusters.
			cfg.Capacity = 64
			cfg.CompactAtFill = 0.5
			db := f(t, cfg)
			bus := obs.NewBus(obs.DefaultBusSize)
			sub := bus.Subscribe()
			db.Observe(obs.NewRecorder(bus, obs.NewStats()))

			ackSum, flips, reclaims, recovers := 0, uint64(0), uint64(0), uint64(0)
			drain := func() {
				for _, e := range sub.Poll(0) {
					switch e.Kind {
					case obs.KindOp, obs.KindCommit, obs.KindRecover:
						ackSum += e.Acked
						if e.Kind == obs.KindRecover {
							recovers++
						}
					case obs.KindMigration:
						if e.Step == "after-flip" {
							flips++
						}
					case obs.KindCompaction:
						if e.Step == "after-reclaim" {
							reclaims++
						}
					}
				}
			}

			const keys = 40
			for round := 0; round < 12; round++ {
				for k := core.Val(0); k < keys; k++ {
					if _, err := db.Put(k, core.Val(round)*1000+k+1); err != nil {
						t.Fatalf("round %d put %d: %v", round, k, err)
					}
				}
				if round%2 == 0 {
					if _, err := db.Scan(0, keys, 10); err != nil {
						t.Fatal(err)
					}
				}
				if round%3 == 2 {
					sh := round % db.NumShards()
					db.Crash(sh)
					if _, err := db.Recover(sh); err != nil {
						t.Fatal(err)
					}
				}
				if round%4 == 3 {
					if _, err := db.Rebalance(); err != nil {
						t.Fatal(err)
					}
				}
				drain()
			}
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
			drain()

			m := db.Metrics()
			if uint64(ackSum) != m.Acked {
				t.Fatalf("event acks sum to %d, Metrics.Acked = %d", ackSum, m.Acked)
			}
			if flips != m.Migrations {
				t.Fatalf("after-flip events = %d, Metrics.Migrations = %d", flips, m.Migrations)
			}
			if reclaims != m.Compactions {
				t.Fatalf("after-reclaim events = %d, Metrics.Compactions = %d", reclaims, m.Compactions)
			}
			if recovers != m.Recoveries {
				t.Fatalf("recover events = %d, Metrics.Recoveries = %d", recovers, m.Recoveries)
			}
			if m.Compactions == 0 {
				t.Fatal("churn produced no compactions; the agreement case lost its teeth")
			}
			if d := sub.Dropped(); d != 0 {
				t.Fatalf("default bus size dropped %d events under a kept-up consumer", d)
			}
		})
	}
}

// FullToDiagnosable fills a tiny DB until it errors and checks the
// failure is a diagnosable ShardFullError carrying shard identity and
// fill level — the contract bench/workload failures rely on. Exposed
// separately from Run because it needs a capacity-constrained config.
func FullToDiagnosable(t *testing.T, f Factory) {
	db := f(t, kv.Config{Shards: 1, Capacity: 4, Strategy: kv.MStoreEach, Seed: 2})
	var lastErr error
	for k := core.Val(0); k < 10 && lastErr == nil; k++ {
		_, lastErr = db.Put(k, 1)
	}
	if !errors.Is(lastErr, kv.ErrShardFull) {
		t.Fatalf("want ErrShardFull, got %v", lastErr)
	}
	var full *kv.ShardFullError
	if !errors.As(lastErr, &full) {
		t.Fatalf("error does not carry *kv.ShardFullError: %v", lastErr)
	}
	if full.Appended != 4 || full.Capacity != 4 || full.Fill() != 1 || full.Need != 1 {
		t.Fatalf("fill details wrong: %+v", full)
	}
	if msg := lastErr.Error(); !strings.Contains(msg, "100% full") {
		t.Fatalf("error message %q does not state the fill level", msg)
	}
}
