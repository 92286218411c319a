// Package pool scales the KV service past a single coherence domain: a
// Router pools N independent clusters — each a complete kv.Store with its
// own memsim cluster, fabric and clock — behind the same kv.DB interface
// a single store serves, following emucxl's application-level API over
// pooled CXL memory and the pooling topologies of CXL-ClusterSim
// (PAPERS.md). Capacity and throughput scale by adding clusters: the
// clusters share nothing, so the pooled service's makespan is the busiest
// shard across all of them, and a GPF issued inside one cluster stalls
// only that cluster's fabric.
//
// # Routing
//
// Keys route key → cluster by hash (ClusterOf: mix(k) mod Clusters), then
// inside the owning store key → store bucket → shard through the shard
// map (docs/rebalancing.md). The cluster choice is front-end arithmetic
// costing nothing on the simulated clock, and it is fixed: no key moves
// between clusters. See docs/pooling.md.
//
// # What is and isn't crash-safe
//
// Every per-cluster guarantee survives pooling unchanged: an acknowledged
// write durably lives in exactly one cluster, and that cluster's
// crash/recovery rules apply verbatim (Crash/Recover pass through to the
// owning store, with shards addressed by global index). What pooling does
// NOT add is any cross-cluster ordering: an Apply spanning clusters
// commits per cluster in sequence, so a crash between those commits can
// leave the batch durable in one cluster and dropped in another — the
// same partial-prefix caveat Apply already carries within one store,
// widened to cluster granularity. Cross-cluster atomicity (and
// cross-cluster bucket migration) is future work; see docs/pooling.md.
package pool

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/obs"
)

// Batch aliases kv.Batch so pool-only callers need one import; Apply
// accepts exactly kv's type, as the DB interface requires.
type Batch = kv.Batch

// Config describes a Router.
type Config struct {
	// Clusters is the number of independent pooled clusters (default 1).
	Clusters int
	// Store configures each cluster's store identically — shards,
	// strategy, capacity and variant are per cluster. Store.Seed seeds
	// cluster 0; cluster c runs at Store.Seed + c so the pooled fabrics
	// are deterministic but not in lockstep.
	Store kv.Config
}

// Router pools N cluster-backed stores behind the kv.DB interface.
// Every cluster runs the one Config.Store, so all clusters have the same
// shard count, per, and shards are addressed by global index: cluster
// c's shard i is c*per + i, and global shard g is cluster g/per's shard
// g%per. The cluster set is immutable after Open, and every store
// serializes its own operations, so Router methods are safe for
// concurrent use; operations on distinct clusters do not serialize
// against each other (they hold mu only for reading). Metrics,
// ResetMetrics and Observe take mu exclusively, so a Metrics snapshot is
// atomically consistent — it never observes a fan-out operation half
// applied.
type Router struct {
	stores []*kv.Store
	per    int // shards per cluster

	// mu is held shared by every operation and exclusively by
	// Metrics/ResetMetrics/Observe.
	mu  sync.RWMutex
	rec *obs.Recorder
}

// Router implements the full DB surface over pooled clusters.
var _ kv.DB = (*Router)(nil)

// Open builds Clusters independent cluster-backed stores and the router
// over them.
func Open(cfg Config) (*Router, error) {
	r := &Router{}
	for c := 0; c < max(cfg.Clusters, 1); c++ {
		scfg := cfg.Store
		scfg.Seed += int64(c)
		st, err := kv.Open(scfg)
		if err != nil {
			return nil, fmt.Errorf("pool: cluster %d: %w", c, err)
		}
		r.stores = append(r.stores, st)
	}
	r.per = r.stores[0].NumShards()
	return r, nil
}

// Observe attaches rec to the router and, derived per cluster with the
// cluster's tag and global shard base, to every pooled store — so every
// store-level event carries its cluster and global shard index while all
// clusters share one bus, one aggregate and one span-ID sequence. The
// router itself emits fan-out parent/leg spans for MultiGet, Scan and
// Apply. Pass nil to detach. Like kv.Store.Observe, instrumentation only
// reads the simulated clocks — the pooled timeline is bit-identical with
// and without a recorder.
func (r *Router) Observe(rec *obs.Recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec = rec
	for c, st := range r.stores {
		st.Observe(rec.Tagged(c, r.globalShard(c, 0)))
	}
}

// NumClusters returns the pooled cluster count.
func (r *Router) NumClusters() int { return len(r.stores) }

// ClusterOf returns the cluster key k routes to. The hash must be
// independent of the store-level shard map's (bare Fibonacci
// multiplication): both reduce modulo counts that share factors in common
// configurations, so reusing the store's hash would alias cluster routing
// with shard routing — at Clusters == Shards every cluster would serve all
// of its traffic on the single shard congruent to its own index. The
// avalanche finisher (Murmur3-style, the same mixing idiom as kv's record
// checksums) decorrelates the two levels.
func (r *Router) ClusterOf(k core.Val) int {
	h := uint64(k) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(r.stores)))
}

// Cluster returns cluster c's backing store (for inspection and tests).
func (r *Router) Cluster(c int) *kv.Store { return r.stores[c] }

// globalShard lifts cluster c's local shard index to the pool's global
// index space.
func (r *Router) globalShard(c, local int) int { return c*r.per + local }

// clusterErr tags a per-store error with the cluster it came from — a
// pooled deployment has Clusters copies of every shard index, so a bare
// "shard 1 is down/full" is ambiguous without it. fmt.Errorf's %w keeps
// errors.Is/errors.As (ErrShardDown, *ShardFullError, ...) working.
func clusterErr(c int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("pool: cluster %d: %w", c, err)
}

// Put routes the write to the key's cluster. The returned Ack's Shard is
// a global index.
func (r *Router) Put(key, val core.Val) (kv.Ack, error) {
	return r.write(key, func(st *kv.Store) (kv.Ack, error) { return st.Put(key, val) })
}

// Delete routes the tombstone to the key's cluster.
func (r *Router) Delete(key core.Val) (kv.Ack, error) {
	return r.write(key, func(st *kv.Store) (kv.Ack, error) { return st.Delete(key) })
}

// write is the body Put and Delete share: op runs on the key's cluster
// under the router's shared lock, and its Ack comes back with a global
// shard index.
func (r *Router) write(key core.Val, op func(*kv.Store) (kv.Ack, error)) (kv.Ack, error) {
	if key < 0 {
		return kv.Ack{}, kv.ErrBadKey
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.ClusterOf(key)
	ack, err := op(r.stores[c])
	if err != nil {
		return kv.Ack{}, clusterErr(c, err)
	}
	ack.Shard = r.globalShard(c, ack.Shard)
	return ack, nil
}

// Get routes the lookup to the key's cluster.
func (r *Router) Get(key core.Val) (core.Val, bool, error) {
	if key < 0 {
		return 0, false, kv.ErrBadKey
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.ClusterOf(key)
	v, ok, err := r.stores[c].Get(key)
	return v, ok, clusterErr(c, err)
}

// MultiGet fans the keys out to their clusters — one MultiGet per
// involved cluster, carrying that cluster's keys in input order — and
// merges the per-cluster results back into input order. Partitioned
// shards degrade the call, not fail it: clusters whose MultiGet returned
// a kv.PartialResultError contribute their reachable results, and the
// merged call returns one pool-level PartialResultError with the
// unreachable shards lifted to global indices. A crashed shard still
// fails the whole call (see kv.PartialResultError for why the two paths
// differ).
func (r *Router) MultiGet(keys []core.Val) ([]kv.Lookup, error) {
	for _, k := range keys {
		if k < 0 {
			return nil, kv.ErrBadKey
		}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	byCluster := make([][]core.Val, len(r.stores))
	byClusterPos := make([][]int, len(r.stores))
	for i, k := range keys {
		c := r.ClusterOf(k)
		byCluster[c] = append(byCluster[c], k)
		byClusterPos[c] = append(byClusterPos[c], i)
	}
	out := make([]kv.Lookup, len(keys))
	var unavailable []int
	missing := 0
	err := r.fanOut(obs.OpMultiGet, len(keys), func(c int) bool { return len(byCluster[c]) > 0 }, func(c int) (int, error) {
		res, err := r.stores[c].MultiGet(byCluster[c])
		var partial *kv.PartialResultError
		if err != nil && !errors.As(err, &partial) {
			return 0, err
		}
		for j, l := range res {
			out[byClusterPos[c][j]] = l
		}
		if partial == nil {
			return len(byCluster[c]), nil
		}
		// Cluster order is ascending and each cluster reports its
		// unavailable shards ascending, so the global list stays sorted.
		for _, sh := range partial.Unavailable {
			unavailable = append(unavailable, r.globalShard(c, sh))
		}
		missing += partial.Missing
		return len(byCluster[c]) - partial.Missing, nil
	})
	if err != nil {
		return nil, err
	}
	if missing > 0 {
		return out, &kv.PartialResultError{Op: "multiget", Unavailable: unavailable, Missing: missing}
	}
	return out, nil
}

// fanOut runs one leg per cluster that has a part in the call (has), in
// cluster order, under a parent span covering the whole call of size n.
// leg runs cluster c's part and returns the size its span reports; the
// first error ends the fan-out, tagged with its cluster. The parent is
// published on every return path, so every leg that went out names a
// parent a consumer can find.
func (r *Router) fanOut(op obs.Op, n int, has func(c int) bool, leg func(c int) (int, error)) error {
	span, start := r.rec.NewSpan(), r.obsNow()
	var err error
	for c, st := range r.stores {
		if !has(c) {
			continue
		}
		lstart := st.NowNS()
		var size int
		if size, err = leg(c); err != nil {
			err = clusterErr(c, err)
			break
		}
		r.rec.FanOutLeg(span, op, c, lstart, st.NowNS(), size)
	}
	r.rec.FanOut(span, op, start, r.obsNow(), n)
	return err
}

// Scan is kv.ScanStores over the clusters, which partition the keyspace:
// one merge over every cluster's shards picks the first limit pairs of
// [lo, hi) (all of them when limit <= 0), then each cluster reads the
// values it holds of them, so the scan walks each key once and loads only
// what it returns. The locks are taken in one order, the router's mu
// (shared) and then every cluster's store lock by cluster index, and held
// to the end, so the pairs are one cut of the pool. A cluster is a leg of
// the fan-out iff the merge took a key from it (or it is the only
// cluster), with one tick of its store's Scans counter, published under
// the parent span allocated here. Like MultiGet, partitioned shards
// degrade the scan to a partial
// result (the reachable shards' pairs plus one pool-level
// kv.PartialResultError with global shard indices, Missing counted over
// all of [lo, hi)) while a crashed in-range shard fails it.
func (r *Router) Scan(lo, hi core.Val, limit int) ([]kv.Pair, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	span, start := r.rec.NewSpan(), r.obsNow()
	pairs, failed, err := kv.ScanStores(r.stores, lo, hi, limit, span)
	if failed >= 0 {
		return nil, clusterErr(failed, err)
	}
	r.rec.FanOut(span, obs.OpScan, start, r.obsNow(), len(pairs))
	return pairs, err
}

// Apply splits the batch into per-cluster sub-batches (each preserving
// the batch's operation order — order across clusters is irrelevant
// because clusters partition the keyspace) and applies them in cluster
// order. Each sub-batch commits inside its own cluster, so on success the
// whole batch is durable and acknowledged with one Ack; on error, whole
// sub-batches (and a prefix of the failing one) may already be applied —
// the same partial-prefix caveat kv.Store.Apply carries, at cluster
// granularity. The returned Ack identifies the last record of the
// sub-batch holding the batch's final operation, with Shard global.
func (r *Router) Apply(b *Batch) (kv.Ack, error) {
	if b == nil || b.Len() == 0 {
		return kv.Ack{Shard: -1, Seq: -1, Durable: true}, nil
	}
	ops := b.Ops()
	for _, op := range ops {
		if op.Key < 0 || (!op.IsDelete() && op.Val < 1) {
			return kv.Ack{}, kv.ErrBadKey
		}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	sub := make([]kv.Batch, len(r.stores))
	lastCluster := 0
	for _, op := range ops {
		c := r.ClusterOf(op.Key)
		if op.IsDelete() {
			sub[c].Delete(op.Key)
		} else {
			sub[c].Put(op.Key, op.Val)
		}
		lastCluster = c
	}
	var final kv.Ack
	err := r.fanOut(obs.OpApply, b.Len(), func(c int) bool { return sub[c].Len() > 0 }, func(c int) (int, error) {
		ack, err := r.stores[c].Apply(&sub[c])
		if c == lastCluster {
			final = ack
			final.Shard = r.globalShard(c, ack.Shard)
		}
		return sub[c].Len(), err
	})
	if err != nil {
		return kv.Ack{}, err
	}
	return final, nil
}

// gather calls f on every cluster in order and concatenates what comes
// back, lift moving each element's shard indices up by its cluster's
// first global index. It stops at the first error, returning what it
// gathered so far — the earlier clusters' calls stay done.
func gather[T any](r *Router, f func(*kv.Store) ([]T, error), lift func(t *T, base int)) ([]T, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var all []T
	for c, st := range r.stores {
		got, err := f(st)
		for i := range got {
			lift(&got[i], r.globalShard(c, 0))
		}
		all = append(all, got...)
		if err != nil {
			return all, clusterErr(c, err)
		}
	}
	return all, nil
}

// onShard calls f with the store owning the shard with global index i
// and the shard's index in that store.
func (r *Router) onShard(i int, f func(st *kv.Store, local int)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f(r.stores[i/r.per], i%r.per)
}

// Sync commits every cluster's open batches.
func (r *Router) Sync() error {
	_, err := gather(r, func(st *kv.Store) ([]struct{}, error) { return nil, st.Sync() }, nil)
	return err
}

// Compact runs each cluster's log compaction — entirely cluster-local
// machinery, like Rebalance — and returns the union of per-shard stats
// with shard indices lifted to the global space.
func (r *Router) Compact() ([]kv.CompactionStats, error) {
	return gather(r, (*kv.Store).Compact, func(s *kv.CompactionStats, base int) { s.Shard += base })
}

// NumShards returns the total shard count across clusters.
func (r *Router) NumShards() int { return len(r.stores) * r.per }

// Crash fails the machine of the shard with global index i.
func (r *Router) Crash(i int) { r.onShard(i, (*kv.Store).Crash) }

// Recover restarts the shard with global index i; the returned stats
// carry the global index.
func (r *Router) Recover(i int) (stats kv.RecoveryStats, err error) {
	if n := r.NumShards(); i < 0 || i >= n {
		return kv.RecoveryStats{}, fmt.Errorf("%w: shard %d not in [0,%d)", kv.ErrOutOfRange, i, n)
	}
	r.onShard(i, func(st *kv.Store, local int) { stats, err = st.Recover(local) })
	if err != nil {
		return kv.RecoveryStats{}, clusterErr(i/r.per, err)
	}
	stats.Shard = r.globalShard(i/r.per, stats.Shard)
	return stats, nil
}

// Partition cuts the machine of the shard with global index i off its
// cluster's fabric. The blast radius is cluster-local but strategy-
// dependent: under the GPF-based strategies the partitioned cluster
// cannot commit at all, while the other pooled clusters are entirely
// unaffected — exactly the isolation pooling exists to provide.
func (r *Router) Partition(i int) { r.onShard(i, (*kv.Store).Partition) }

// Heal reconnects the shard with global index i to its cluster's fabric.
func (r *Router) Heal(i int) { r.onShard(i, (*kv.Store).Heal) }

// Degrade sets the latency multiplier of the shard with global index i's
// device.
func (r *Router) Degrade(i int, factor float64) {
	r.onShard(i, func(st *kv.Store, local int) { st.Degrade(local, factor) })
}

// Health concatenates every cluster's shard health in global shard order.
func (r *Router) Health() []kv.ShardHealth {
	all, _ := gather(r, func(st *kv.Store) ([]kv.ShardHealth, error) { return st.Health(), nil },
		func(h *kv.ShardHealth, base int) { h.Shard += base })
	return all
}

// Rebalance runs each cluster's load-aware rebalancer — bucket migration
// stays within a cluster today (cross-cluster migration is future work) —
// and returns the union of moves with shard indices lifted to the global
// space.
func (r *Router) Rebalance() ([]kv.MigrationStats, error) {
	return gather(r, (*kv.Store).Rebalance, func(m *kv.MigrationStats, base int) { m.From, m.To = m.From+base, m.To+base })
}

// CrashFront fails every cluster's front-end machine — the pooled
// analogue of one coordinator process dying: each cluster's data plane
// fails with kv.ErrFrontDown until RecoverFront.
func (r *Router) CrashFront() {
	gather(r, func(st *kv.Store) ([]struct{}, error) { st.CrashFront(); return nil, nil }, nil)
}

// RecoverFront restarts every cluster's front end and re-attaches its
// shards by replaying their durable logs, returning the union of
// per-shard stats with shard indices lifted to the global space. On a
// cluster's error the earlier clusters stay recovered (their stats are
// returned) and the failing cluster's front stays down — retry after
// addressing the error.
func (r *Router) RecoverFront() ([]kv.RecoveryStats, error) {
	return gather(r, (*kv.Store).RecoverFront, func(s *kv.RecoveryStats, base int) { s.Shard += base })
}

// FrontDown reports whether any cluster's front end is currently
// crashed (after CrashFront: all of them, until RecoverFront).
func (r *Router) FrontDown() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.ContainsFunc(r.stores, (*kv.Store).FrontDown)
}

// Metrics is the pool's snapshot, kv.MetricsOf over the clusters:
// counters summed, per-shard series in global shard order, latency and
// recovery samples pooled cluster-major (cluster 0's series in its own
// order, then cluster 1's, ...). A one-cluster pool's snapshot is its
// store's. The snapshot is atomically consistent — Metrics holds the
// router lock exclusively, so no operation (in particular no
// multi-cluster Apply) is in flight while the clusters are read.
func (r *Router) Metrics() kv.Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return kv.MetricsOf(r.stores)
}

// ResetMetrics zeroes every cluster's counters and clocks.
func (r *Router) ResetMetrics() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.stores {
		st.ResetMetrics()
	}
}

// obsNow is the pool's summed clock as an observability timestamp: summed
// only while a recorder is attached, so an unobserved fan-out pays one
// pointer check and hands the nil recorder's no-op methods a zero they
// ignore. (One cluster's clock is a lock-free read; legs take it bare.)
func (r *Router) obsNow() float64 {
	if r.rec == nil {
		return 0
	}
	return r.NowNS()
}

// NowNS returns the sum of the pooled clusters' independent simulated
// clocks — the pool's total consumed simulated time. Deltas around an
// operation measure its cost (its owning cluster is the only clock that
// advances; a fan-out op's delta is the summed cost across clusters).
// It takes no router lock: the store slice is immutable and a cluster's
// clock is read atomically.
func (r *Router) NowNS() float64 {
	total := 0.0
	for _, st := range r.stores {
		total += st.NowNS()
	}
	return total
}
