package pool

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
)

func openTest(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// keyOnCluster returns a key the router routes to cluster c.
func keyOnCluster(t *testing.T, r *Router, c int) core.Val {
	t.Helper()
	for k := core.Val(0); k < 10000; k++ {
		if r.ClusterOf(k) == c {
			return k
		}
	}
	t.Fatalf("no key found for cluster %d", c)
	return 0
}

// TestRouterSingleClusterEquivalence pins the refactor's ground truth: a
// 1-cluster Router is bit-identical to the bare Store it wraps — same
// results, same simulated clock, same metrics — so porting the workload
// harness onto the Router changed nothing for existing configurations.
func TestRouterSingleClusterEquivalence(t *testing.T) {
	cfg := kv.Config{Shards: 3, Strategy: kv.RangedCommit, Batch: 4, Capacity: 256, Seed: 11, EvictEvery: 3}
	st, err := kv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := openTest(t, Config{Clusters: 1, Store: cfg})

	drive := func(db kv.DB) {
		for k := core.Val(0); k < 40; k++ {
			if _, err := db.Put(k, k*3+1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Delete(7); err != nil {
			t.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		for k := core.Val(0); k < 40; k += 5 {
			if _, _, err := db.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Scan(5, 30, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := db.MultiGet([]core.Val{3, 99, 12}); err != nil {
			t.Fatal(err)
		}
		b := new(kv.Batch).Put(100, 1).Put(101, 2).Delete(100)
		if ack, err := db.Apply(b); err != nil || !ack.Durable {
			t.Fatalf("apply: %+v, %v", ack, err)
		}
		db.Crash(1)
		if _, err := db.Recover(1); err != nil {
			t.Fatal(err)
		}
	}
	drive(st)
	drive(rt)
	if !reflect.DeepEqual(st.Metrics(), rt.Metrics()) {
		t.Fatalf("metrics diverged:\nstore:  %+v\nrouter: %+v", st.Metrics(), rt.Metrics())
	}
	if st.NowNS() != rt.NowNS() {
		t.Fatalf("clocks diverged: %.0f vs %.0f", st.NowNS(), rt.NowNS())
	}
}

// TestRouterRoutesAndAggregates: keys partition across clusters by
// hash, every key stays readable through the router, and the
// aggregate metrics are the per-cluster sums in global shard order.
func TestRouterRoutesAndAggregates(t *testing.T) {
	r := openTest(t, Config{Clusters: 3, Store: kv.Config{Shards: 2, Strategy: kv.MStoreEach, Capacity: 128, Seed: 5}})
	if r.NumClusters() != 3 || r.NumShards() != 6 {
		t.Fatalf("pool shape: %d clusters, %d shards", r.NumClusters(), r.NumShards())
	}
	const n = 60
	seen := map[int]int{}
	for k := core.Val(0); k < n; k++ {
		ack, err := r.Put(k, k+1)
		if err != nil {
			t.Fatal(err)
		}
		c := r.ClusterOf(k)
		seen[c]++
		if ack.Shard < r.globalShard(c, 0) || ack.Shard >= r.globalShard(c+1, 0) {
			t.Fatalf("key %d on cluster %d acked with global shard %d", k, c, ack.Shard)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("60 keys only reached clusters %v", seen)
	}
	for k := core.Val(0); k < n; k++ {
		v, ok, err := r.Get(k)
		if err != nil || !ok || v != k+1 {
			t.Fatalf("get %d = (%d, %v, %v)", k, v, ok, err)
		}
		// The key must live in exactly its cluster's store.
		for c := 0; c < 3; c++ {
			_, there, err := r.Cluster(c).Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if there != (c == r.ClusterOf(k)) {
				t.Fatalf("key %d present=%v on cluster %d, routed to %d", k, there, c, r.ClusterOf(k))
			}
		}
	}
	m := r.Metrics()
	if m.Puts != n || m.Acked != n {
		t.Fatalf("aggregate puts=%d acked=%d, want %d", m.Puts, m.Acked, n)
	}
	if len(m.PerShardBusyNS) != 6 || len(m.PerShardChurnNS) != 6 {
		t.Fatalf("per-shard series length %d/%d, want 6", len(m.PerShardBusyNS), len(m.PerShardChurnNS))
	}
	var sum float64
	for c := 0; c < 3; c++ {
		for _, b := range r.Cluster(c).Metrics().PerShardBusyNS {
			sum += b
		}
	}
	if sum != m.TotalBusyNS() {
		t.Fatalf("aggregate busy %.0f != per-cluster sum %.0f", m.TotalBusyNS(), sum)
	}
}

// TestRouterMetricsSumCounters: the pooled snapshot's counters are
// exactly kv.Counters.Add over the clusters' own — after a workload that
// moves the churn counters too: a crash with recovery, a rebalance, a
// compaction and limited scans, which discard nothing they load.
func TestRouterMetricsSumCounters(t *testing.T) {
	r := openTest(t, Config{Clusters: 3, Store: kv.Config{
		Shards: 2, Strategy: kv.GroupCommit, Batch: 4, PipelineDepth: 2, Capacity: 512, Seed: 5,
		ReadCache: 16, Prefetch: true, RebalanceThreshold: 1.01,
	}})
	for round := 0; round < 3; round++ {
		for k := core.Val(0); k < 90; k++ {
			// Skewed towards low keys so the rebalancer has a hotspot.
			if _, err := r.Put(k%(30*core.Val(round+1)), k+1); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.Get(k / 3); err != nil {
				t.Fatal(err)
			}
		}
		var b Batch
		b.Put(1000, 1).Put(1001, 2).Delete(7)
		if _, err := r.Apply(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := r.MultiGet([]core.Val{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Scan(0, 90, 5); err != nil {
			t.Fatal(err)
		}
		switch round {
		case 0:
			r.Crash(3)
			if _, err := r.Recover(3); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := r.Rebalance(); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := r.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := r.Metrics().Counters
	if got.Recoveries == 0 || got.Migrations == 0 || got.Compactions == 0 || got.ScanDiscardedPairs != 0 {
		t.Fatalf("the workload should have recovered, migrated and compacted, and discarded no scanned pair: %+v", got)
	}
	var want kv.Counters
	for c := 0; c < r.NumClusters(); c++ {
		want.Add(r.Cluster(c).Metrics().Counters)
	}
	if got != want {
		t.Fatalf("pooled counters\n  %+v\nare not the sum of the clusters'\n  %+v", got, want)
	}
}

// TestRouterMultiGetMergesAcrossClusters: results come back in input
// order with per-key found flags, regardless of which cluster served
// each key.
func TestRouterMultiGetMergesAcrossClusters(t *testing.T) {
	r := openTest(t, Config{Clusters: 2, Store: kv.Config{Shards: 2, Strategy: kv.GPFEach, Capacity: 64, Seed: 3}})
	k0 := keyOnCluster(t, r, 0)
	k1 := keyOnCluster(t, r, 1)
	for _, k := range []core.Val{k0, k1} {
		if _, err := r.Put(k, k*10+1); err != nil {
			t.Fatal(err)
		}
	}
	missing := core.Val(9999)
	for r.ClusterOf(missing) != 1 {
		missing++
	}
	keys := []core.Val{k1, missing, k0, k1}
	res, err := r.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(keys) {
		t.Fatalf("%d results for %d keys", len(res), len(keys))
	}
	for i, l := range res {
		if l.Key != keys[i] {
			t.Fatalf("result %d is key %d, want %d (input order lost)", i, l.Key, keys[i])
		}
		wantFound := keys[i] != missing
		if l.Found != wantFound || (wantFound && l.Val != keys[i]*10+1) {
			t.Fatalf("result %d = %+v", i, l)
		}
	}
	if _, err := r.MultiGet([]core.Val{-1}); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("negative key: %v", err)
	}
	m := r.Metrics()
	if m.MultiGets != 2 {
		t.Fatalf("MultiGets = %d, want 2 (one fan-out per involved cluster)", m.MultiGets)
	}
	if m.Gets != uint64(len(keys)) {
		t.Fatalf("Gets = %d, want %d (one per resolved key)", m.Gets, len(keys))
	}
}

// TestRouterScanMergesGlobalOrder: a pooled scan returns one globally
// key-ordered result across clusters, honoring the limit.
func TestRouterScanMergesGlobalOrder(t *testing.T) {
	r := openTest(t, Config{Clusters: 3, Store: kv.Config{Shards: 2, Strategy: kv.MStoreEach, Capacity: 128, Seed: 7}})
	const n = 30
	for k := core.Val(0); k < n; k++ {
		if _, err := r.Put(k, k+100); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := r.Scan(5, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 {
		t.Fatalf("scan [5,25) returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if want := core.Val(5 + i); p.Key != want || p.Val != want+100 {
			t.Fatalf("pair %d = %+v, want key %d (global order broken)", i, p, want)
		}
	}
	limited, err := r.Scan(0, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 7 || limited[0].Key != 0 || limited[6].Key != 6 {
		t.Fatalf("limited scan = %v, want keys 0..6", limited)
	}
}

// TestRouterApplySplitsAndCommits: one client batch spanning clusters is
// split per cluster, applied in order (a put then delete of the same key
// deletes it), committed everywhere, and acknowledged with one durable
// Ack.
func TestRouterApplySplitsAndCommits(t *testing.T) {
	r := openTest(t, Config{Clusters: 2, Store: kv.Config{Shards: 2, Strategy: kv.GroupCommit, Batch: 64, Capacity: 64, Seed: 9}})
	k0 := keyOnCluster(t, r, 0)
	k1 := keyOnCluster(t, r, 1)
	k1b := k1 + 1
	for r.ClusterOf(k1b) != 1 || k1b == k1 {
		k1b++
	}
	b := new(kv.Batch).Put(k0, 10).Put(k1, 20).Put(k1b, 30).Delete(k1)
	ack, err := r.Apply(b)
	if err != nil || !ack.Durable {
		t.Fatalf("apply: %+v, %v", ack, err)
	}
	// The batch's final op (Delete k1) lives on cluster 1: the returned
	// ack must point into cluster 1's global shard range.
	if ack.Shard < r.globalShard(1, 0) {
		t.Fatalf("ack shard %d not global to cluster 1 (base %d)", ack.Shard, r.globalShard(1, 0))
	}
	if v, ok, _ := r.Get(k0); !ok || v != 10 {
		t.Fatalf("k0 = (%d, %v)", v, ok)
	}
	if _, ok, _ := r.Get(k1); ok {
		t.Fatal("k1 survived its in-batch delete")
	}
	if v, ok, _ := r.Get(k1b); !ok || v != 30 {
		t.Fatalf("k1b = (%d, %v)", v, ok)
	}
	m := r.Metrics()
	if m.Batches != 2 {
		t.Fatalf("Batches = %d, want 2 (one sub-apply per involved cluster)", m.Batches)
	}
	// Apply is the commit point even under a batched strategy with a huge
	// Config.Batch: everything must already be acknowledged durable.
	if m.Acked != 4 {
		t.Fatalf("Acked = %d, want 4", m.Acked)
	}
	// An empty batch is a durable no-op.
	if ack, err := r.Apply(new(kv.Batch)); err != nil || !ack.Durable {
		t.Fatalf("empty apply: %+v, %v", ack, err)
	}
	// A bad op anywhere fails the whole batch before any cluster applies.
	before := r.Metrics().Puts
	if _, err := r.Apply(new(kv.Batch).Put(k0, 40).Put(-1, 1)); !errors.Is(err, kv.ErrBadKey) {
		t.Fatalf("bad batch: %v", err)
	}
	if r.Metrics().Puts != before {
		t.Fatal("failed batch still applied operations")
	}
}

// TestRouterCrashRecoverGlobalIndex: Crash/Recover address shards by
// global index and pass through to the owning cluster, leaving the other
// clusters serving.
func TestRouterCrashRecoverGlobalIndex(t *testing.T) {
	r := openTest(t, Config{Clusters: 2, Store: kv.Config{Shards: 2, Strategy: kv.MStoreEach, Capacity: 64, Seed: 4}})
	k0 := keyOnCluster(t, r, 0)
	k1 := keyOnCluster(t, r, 1)
	for _, k := range []core.Val{k0, k1} {
		if _, err := r.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the shard serving k1, addressed globally.
	local := r.Cluster(1).ShardOf(k1)
	global := r.globalShard(1, local)
	r.Crash(global)
	if _, _, err := r.Get(k1); !errors.Is(err, kv.ErrShardDown) {
		t.Fatalf("get through crashed shard: %v", err)
	} else if !strings.Contains(err.Error(), "cluster 1") {
		t.Fatalf("pooled error %q does not name the owning cluster", err)
	}
	if v, ok, err := r.Get(k0); err != nil || !ok || v != k0+1 {
		t.Fatalf("other cluster disturbed: (%d, %v, %v)", v, ok, err)
	}
	stats, err := r.Recover(global)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shard != global {
		t.Fatalf("recovery stats shard %d, want global %d", stats.Shard, global)
	}
	if v, ok, err := r.Get(k1); err != nil || !ok || v != k1+1 {
		t.Fatalf("k1 after recovery: (%d, %v, %v)", v, ok, err)
	}
	if m := r.Metrics(); m.Recoveries != 1 {
		t.Fatalf("aggregate recoveries = %d", m.Recoveries)
	}
}

// TestClusterOfMatchesBucketMap holds the hash routing to the two-level
// pool-bucket map it replaced — 128 buckets rounded up to a multiple of
// the cluster count, bucket b on cluster b mod Clusters — which it equals
// because the cluster count divides the bucket count.
func TestClusterOfMatchesBucketMap(t *testing.T) {
	for clusters := 1; clusters <= 8; clusters++ {
		r := &Router{stores: make([]*kv.Store, clusters)}
		buckets := (128 + clusters - 1) / clusters * clusters
		for k := core.Val(0); k < 10000; k++ {
			h := uint64(k) * 0x9e3779b97f4a7c15
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			if want := int(h%uint64(buckets)) % clusters; r.ClusterOf(k) != want {
				t.Fatalf("%d clusters, key %d: ClusterOf %d, bucket map %d", clusters, k, r.ClusterOf(k), want)
			}
		}
	}
}

// TestRouterHashDecorrelatedFromShardMap is the regression test for a
// routing-aliasing bug: the cluster hash and the store shard map both
// reduce a key hash modulo counts that share factors (128 by default), so
// if the two levels used the same hash, every cluster at Clusters ==
// Shards would route all of its traffic to the one shard congruent to
// its own index. Each cluster must spread its keys over all of its
// shards.
func TestRouterHashDecorrelatedFromShardMap(t *testing.T) {
	for _, shape := range []struct{ clusters, shards int }{{4, 4}, {2, 4}, {4, 2}} {
		r := openTest(t, Config{Clusters: shape.clusters, Store: kv.Config{Shards: shape.shards, Strategy: kv.MStoreEach, Capacity: 4096, Seed: 3}})
		for k := core.Val(0); k < 600; k++ {
			if _, err := r.Put(k, 1); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; c < shape.clusters; c++ {
			busy := r.Cluster(c).Metrics().PerShardBusyNS
			idle := 0
			for _, b := range busy {
				if b == 0 {
					idle++
				}
			}
			if idle > 0 {
				t.Errorf("%d clusters x %d shards: cluster %d left %d of %d shards idle (%v) — pool and shard hashing alias",
					shape.clusters, shape.shards, c, idle, shape.shards, busy)
			}
		}
	}
}

// TestRouterThroughputScalesWithClusters is the pooling claim in
// miniature: the same write traffic spread over more clusters finishes in
// a smaller makespan — clusters are independent fabrics, so even GPF
// commits stop stalling each other across cluster boundaries.
func TestRouterThroughputScalesWithClusters(t *testing.T) {
	makespan := func(clusters int) float64 {
		r := openTest(t, Config{Clusters: clusters, Store: kv.Config{Shards: 2, Strategy: kv.GroupCommit, Batch: 8, Capacity: 1024, Seed: 6}})
		for k := core.Val(0); k < 400; k++ {
			if _, err := r.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Sync(); err != nil {
			t.Fatal(err)
		}
		return r.Metrics().MaxBusyNS()
	}
	one, four := makespan(1), makespan(4)
	if four >= one {
		t.Fatalf("4-cluster makespan %.0f not below 1-cluster %.0f", four, one)
	}
}

// TestRouterGlobalIndexAtThreeShards holds the global-index rule — cluster
// c's local shard i is c*3 + i — at a per-cluster shard count other than
// 2, on the three reports no other test lifts: Rebalance's From/To,
// Health's Shard and RecoverFront's stats. Two routers run the same
// deterministic workload; one answers through the router, the other
// through its clusters' stores, lifted by hand.
func TestRouterGlobalIndexAtThreeShards(t *testing.T) {
	const clusters, per = 2, 3
	open := func() *Router {
		r := openTest(t, Config{Clusters: clusters, Store: kv.Config{
			Shards: per, Strategy: kv.GroupCommit, Batch: 4, Capacity: 512, Seed: 5, RebalanceThreshold: 1.01,
		}})
		for k := core.Val(0); k < 60; k++ {
			if _, err := r.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		// One hot key per cluster, so every cluster has a shard to drain.
		for c := 0; c < clusters; c++ {
			hot := keyOnCluster(t, r, c)
			for i := core.Val(0); i < 60; i++ {
				if _, err := r.Put(hot, i+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.Sync(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	pooled, bare := open(), open()

	moves, err := pooled.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	var wantMoves []kv.MigrationStats
	for c := 0; c < clusters; c++ {
		ms, err := bare.Cluster(c).Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			m.From, m.To = c*per+m.From, c*per+m.To
			wantMoves = append(wantMoves, m)
		}
	}
	if len(moves) == 0 || moves[len(moves)-1].From < per {
		t.Fatalf("the workload should migrate on cluster 1 too: %+v", moves)
	}
	if !reflect.DeepEqual(moves, wantMoves) {
		t.Fatalf("pooled moves\n  %+v\nare not the clusters' lifted by c*%d\n  %+v", moves, per, wantMoves)
	}

	pooled.CrashFront()
	stats, err := pooled.RecoverFront()
	if err != nil {
		t.Fatal(err)
	}
	var wantStats []kv.RecoveryStats
	for c := 0; c < clusters; c++ {
		bare.Cluster(c).CrashFront()
		rs, err := bare.Cluster(c).RecoverFront()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range rs {
			s.Shard = c*per + s.Shard
			wantStats = append(wantStats, s)
		}
	}
	if len(stats) != clusters*per || !reflect.DeepEqual(stats, wantStats) {
		t.Fatalf("pooled front recovery\n  %+v\nis not the clusters' lifted by c*%d\n  %+v", stats, per, wantStats)
	}

	// One fault per shard state, each on a different local index.
	pooled.Partition(0*per + 2)
	pooled.Crash(1*per + 1)
	pooled.Degrade(1*per+2, 4)
	health := pooled.Health()
	if len(health) != clusters*per {
		t.Fatalf("health of %d shards, want %d", len(health), clusters*per)
	}
	for g, h := range health {
		want := pooled.Cluster(g / per).Health()[g%per]
		want.Shard = g
		if h != want {
			t.Fatalf("health[%d] = %+v, want cluster %d's shard %d lifted: %+v", g, h, g/per, g%per, want)
		}
		if h.Partitioned != (g == 2) || h.Down != (g == 4) || (h.DegradeFactor == 4) != (g == 5) {
			t.Fatalf("health[%d] = %+v: the faults went to the wrong global shards", g, h)
		}
	}
}

// TestRouterCompactGlobalIndices: Compact passes through to every
// cluster's compaction, returns stats carrying global shard indices, and
// the aggregate metrics sum the per-cluster compaction counters.
func TestRouterCompactGlobalIndices(t *testing.T) {
	r := openTest(t, Config{Clusters: 2, Store: kv.Config{Shards: 2, Strategy: kv.RangedCommit, Batch: 4, Capacity: 128, Seed: 13}})
	// Touch every shard of every cluster, with overwrite churn so each
	// compaction reclaims something.
	for round := 0; round < 3; round++ {
		for k := core.Val(0); k < 64; k++ {
			if _, err := r.Put(k, core.Val(round)*100+k+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != r.NumShards() {
		t.Fatalf("compacted %d shards of %d", len(stats), r.NumShards())
	}
	seen := map[int]bool{}
	reclaimed := 0
	for _, cs := range stats {
		if cs.Shard < 0 || cs.Shard >= r.NumShards() {
			t.Fatalf("stats carry local shard index %d, want global [0,%d)", cs.Shard, r.NumShards())
		}
		if seen[cs.Shard] {
			t.Fatalf("shard %d compacted twice in one call", cs.Shard)
		}
		seen[cs.Shard] = true
		reclaimed += cs.Reclaimed
	}
	if reclaimed == 0 {
		t.Fatal("overwrite churn reclaimed nothing")
	}
	m := r.Metrics()
	if int(m.Compactions) != r.NumShards() || int(m.ReclaimedSlots) != reclaimed {
		t.Fatalf("aggregate metrics %d compactions / %d reclaimed, want %d / %d",
			m.Compactions, m.ReclaimedSlots, r.NumShards(), reclaimed)
	}
	if len(m.CompactionNS) != r.NumShards() {
		t.Fatalf("%d compaction durations pooled, want %d", len(m.CompactionNS), r.NumShards())
	}
	// Visibility unchanged across the pooled compaction, and durable.
	for i := 0; i < r.NumShards(); i++ {
		r.Crash(i)
		if _, err := r.Recover(i); err != nil {
			t.Fatal(err)
		}
	}
	for k := core.Val(0); k < 64; k++ {
		if v, ok, err := r.Get(k); err != nil || !ok || v != 200+k+1 {
			t.Fatalf("get %d = (%d, %v, %v) after pooled compaction", k, v, ok, err)
		}
	}
}
