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
// Keys route key → cluster by hash (ClusterOf, kv.StoreOf), then inside
// the owning store key → bucket → shard through the shard map
// (docs/rebalancing.md). The cluster choice costs nothing on the
// simulated clock, and it is fixed: no key moves between clusters.
//
// # What is and isn't crash-safe
//
// Every per-cluster guarantee survives pooling unchanged: an acknowledged
// write durably lives in exactly one cluster, under that cluster's
// crash/recovery rules (with shards addressed by global index). Pooling
// adds no cross-cluster atomicity: an Apply commits per cluster in
// sequence under every cluster's lock, so no other call sees it half
// applied, but a failure in a later cluster leaves the earlier clusters'
// parts durable — Apply's partial-prefix caveat at cluster granularity.
// Cross-cluster atomicity and migration are future work; see
// docs/pooling.md.
package pool

import (
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

// Router pools N cluster-backed stores behind the kv.DB interface. Every
// cluster runs the one Config.Store, so cluster c's shard i has global
// index c*per + i. Router methods are safe for concurrent use: a point
// operation (Put, Delete, Get) takes its cluster's store lock alone, so
// those on distinct clusters do not serialize, while MultiGet, Scan,
// Apply and Metrics are each one kv routine over the clusters, holding
// every cluster's lock: one cut of the pool.
type Router struct {
	stores []*kv.Store
	per    int // shards per cluster

	// mu is held shared by every operation and exclusively by
	// ResetMetrics and Observe.
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
// clusters share one bus, one aggregate and one span-ID sequence;
// MultiGet, Scan and Apply publish their fan-out spans under rec itself.
// Pass nil to detach. Instrumentation only reads the simulated clocks:
// the pooled timeline is bit-identical with and without a recorder.
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

// ClusterOf returns the cluster key k routes to (kv.StoreOf).
func (r *Router) ClusterOf(k core.Val) int { return kv.StoreOf(k, len(r.stores)) }

// Cluster returns cluster c's backing store (for inspection and tests).
func (r *Router) Cluster(c int) *kv.Store { return r.stores[c] }

// globalShard lifts cluster c's local shard index to the pool's global
// index space.
func (r *Router) globalShard(c, local int) int { return c*r.per + local }

// clusterErr tags a per-store error with the cluster it came from, if
// any (c >= 0) — a pooled deployment has Clusters copies of every shard
// index, so a bare "shard 1 is down/full" is ambiguous without it.
// fmt.Errorf's %w keeps errors.Is/errors.As working.
func clusterErr(c int, err error) error {
	if err == nil || c < 0 {
		return err
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

// MultiGet is kv.MultiGetStores over the clusters; partitioned shards
// degrade it to a partial result with global shard indices, and an error
// is tagged with its cluster, as for Scan and Apply.
func (r *Router) MultiGet(keys []core.Val) ([]kv.Lookup, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out, failed, err := kv.MultiGetStores(r.stores, keys, r.rec)
	return out, clusterErr(failed, err)
}

// Scan is kv.ScanStores over the clusters.
func (r *Router) Scan(lo, hi core.Val, limit int) ([]kv.Pair, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pairs, failed, err := kv.ScanStores(r.stores, lo, hi, limit, r.rec)
	return pairs, clusterErr(failed, err)
}

// Apply is kv.ApplyStores over the clusters; the Ack's Shard is global.
func (r *Router) Apply(b *Batch) (kv.Ack, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ack, failed, err := kv.ApplyStores(r.stores, b, r.rec)
	return ack, clusterErr(failed, err)
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
// store's. The snapshot is one cut of the pool, like every call over the
// clusters: it never observes a multi-cluster Apply half applied.
func (r *Router) Metrics() kv.Metrics {
	r.mu.RLock()
	defer r.mu.RUnlock()
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

// NowNS returns the sum of the pooled clusters' independent simulated
// clocks — the pool's total consumed simulated time, so the delta around
// an operation is its summed cost across clusters. It takes no lock: the
// store slice is immutable and a cluster's clock is read atomically.
func (r *Router) NowNS() float64 {
	total := 0.0
	for _, st := range r.stores {
		total += st.NowNS()
	}
	return total
}
