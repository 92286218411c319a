package pool

import (
	"errors"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/obs"
)

func obsPoolCfg(clusters int) Config {
	return Config{
		Clusters: clusters,
		Store:    kv.Config{Shards: 2, Strategy: kv.GroupCommit, Batch: 4, Capacity: 512, Seed: 7},
	}
}

// seedKeys writes n sequential keys through the router and syncs.
func seedKeys(t *testing.T, r *Router, n int) {
	t.Helper()
	for k := core.Val(0); k < core.Val(n); k++ {
		if _, err := r.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsAtomicSnapshot pins the RWMutex contract: a Metrics snapshot
// taken while multi-cluster Applies race is never mid-batch — every
// snapshot sees whole batches (Puts a multiple of the batch length) with
// every counted write acked.
func TestMetricsAtomicSnapshot(t *testing.T) {
	r, err := Open(obsPoolCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	const batchLen = 8
	const batches = 60
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			b := new(Batch)
			for j := 0; j < batchLen; j++ {
				b.Put(core.Val(i*batchLen+j), core.Val(i+j+1))
			}
			if _, err := r.Apply(b); err != nil {
				t.Errorf("apply %d: %v", i, err)
				return
			}
		}
	}()
	for {
		m := r.Metrics()
		if m.Puts%batchLen != 0 {
			t.Fatalf("snapshot caught a torn batch: %d puts (batch length %d)", m.Puts, batchLen)
		}
		if m.Acked != m.Puts {
			t.Fatalf("snapshot caught uncommitted writes: %d acked of %d puts (Apply is a commit point)", m.Acked, m.Puts)
		}
		select {
		case <-done:
			if m := r.Metrics(); m.Puts != batchLen*batches {
				t.Fatalf("final puts = %d, want %d", m.Puts, batchLen*batches)
			}
			return
		default:
		}
	}
}

// TestRouterFanOutEvents pins the router's parent/leg span linking: a
// fan-out MultiGet emits one parent span and one leg per involved
// cluster, each leg carrying the cluster and the parent's span ID, with
// the per-cluster store spans riding the same bus tagged by cluster.
func TestRouterFanOutEvents(t *testing.T) {
	r, err := Open(obsPoolCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	seedKeys(t, r, 40)
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	r.Observe(obs.NewRecorder(bus, obs.NewStats()))

	// Keys spanning both clusters.
	var keys []core.Val
	seen := map[int]bool{}
	for k := core.Val(0); k < 40 && len(keys) < 6; k++ {
		c := r.ClusterOf(k)
		keys = append(keys, k)
		seen[c] = true
	}
	if len(seen) != 2 {
		t.Skip("first keys landed on one cluster; hash changed?")
	}
	if _, err := r.MultiGet(keys); err != nil {
		t.Fatal(err)
	}

	evs := sub.Poll(0)
	var parent *obs.Event
	legs := map[int]obs.Event{}
	storeSpans := 0
	for i, e := range evs {
		if e.Kind != obs.KindOp || e.Op != obs.OpMultiGet {
			continue
		}
		switch {
		case e.Parent != 0:
			legs[e.Cluster] = evs[i]
		case e.Shard == -1 && e.Cluster == -1:
			parent = &evs[i]
		default:
			storeSpans++ // the pooled stores' own MultiGet spans, cluster-tagged
		}
	}
	if parent == nil {
		t.Fatalf("no parent fan-out span among %d events", len(evs))
	}
	if parent.N != len(keys) {
		t.Fatalf("parent span n = %d, want %d", parent.N, len(keys))
	}
	if len(legs) != 2 {
		t.Fatalf("legs for clusters %v, want both clusters", legs)
	}
	for c, leg := range legs { //cxl0:order-insensitive — independent per-cluster asserts
		if leg.Parent != parent.Span {
			t.Fatalf("cluster %d leg parent = %d, want %d", c, leg.Parent, parent.Span)
		}
	}
	if storeSpans != 2 {
		t.Fatalf("store-level MultiGet spans = %d, want one per involved cluster", storeSpans)
	}

	// Store events arriving over the shared bus are cluster-tagged with
	// global shard indices.
	if _, err := r.Put(keys[0], 999); err != nil {
		t.Fatal(err)
	}
	c := r.ClusterOf(keys[0])
	putEvs := sub.Poll(0)
	found := false
	for _, e := range putEvs {
		if e.Kind == obs.KindOp && e.Op == obs.OpPut {
			found = true
			if e.Cluster != c {
				t.Fatalf("put event cluster = %d, want %d", e.Cluster, c)
			}
			if e.Shard < r.globalShard(c, 0) || e.Shard >= r.globalShard(c+1, 0) {
				t.Fatalf("put event shard %d outside cluster %d's global range", e.Shard, c)
			}
		}
	}
	if !found {
		t.Fatal("pooled store put emitted no event on the shared bus")
	}
}

// TestFanOutFailurePublishesParent: a fan-out that fails part-way still
// publishes its parent span, so every leg that went out names a parent a
// consumer can find. On 2 clusters × 1 shard with cluster 1's shard
// crashed, MultiGet and Apply over one key per cluster run cluster 0's
// leg — for Apply a durable part of the batch — and then fail on cluster
// 1; a Scan over both keys fails in its merge, before any leg ran.
func TestFanOutFailurePublishesParent(t *testing.T) {
	r := openTest(t, Config{Clusters: 2, Store: kv.Config{Shards: 1, Strategy: kv.GroupCommit, Batch: 4, Capacity: 128, Seed: 7}})
	k0, k1 := keyOnCluster(t, r, 0), keyOnCluster(t, r, 1)
	if _, err := r.Put(k1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	r.Observe(obs.NewRecorder(bus, obs.NewStats()))
	r.Crash(1)

	for _, call := range []struct {
		name string
		legs int
		do   func() error
	}{
		{"MultiGet", 1, func() error { _, err := r.MultiGet([]core.Val{k0, k1}); return err }},
		{"Apply", 1, func() error { _, err := r.Apply(new(Batch).Put(k0, 1).Put(k1, 2)); return err }},
		{"Scan", 0, func() error { _, err := r.Scan(0, max(k0, k1)+1, 0); return err }},
	} {
		if err := call.do(); !errors.Is(err, kv.ErrShardDown) {
			t.Fatalf("%s over a crashed cluster: %v, want ErrShardDown", call.name, err)
		}
		evs := sub.Poll(0)
		parents := map[uint64]bool{}
		for _, e := range evs {
			if e.Kind == obs.KindOp && e.Parent == 0 && e.Cluster == -1 {
				parents[e.Span] = true
			}
		}
		if len(parents) != 1 {
			t.Errorf("%s: %d parent spans published, want 1", call.name, len(parents))
		}
		legs := 0
		for _, e := range evs {
			if e.Kind != obs.KindOp || e.Parent == 0 {
				continue
			}
			legs++
			if !parents[e.Parent] {
				t.Errorf("%s: cluster %d's leg names parent %d, which was never published", call.name, e.Cluster, e.Parent)
			}
		}
		if legs != call.legs {
			t.Errorf("%s: %d legs published, want %d", call.name, legs, call.legs)
		}
	}
}

// TestRouterObservedTimelineUnchanged mirrors the store-level guarantee
// at the pool level: attaching a recorder does not move the pooled
// simulated timeline.
func TestRouterObservedTimelineUnchanged(t *testing.T) {
	run := func(observe bool) float64 {
		r, err := Open(obsPoolCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			r.Observe(obs.NewRecorder(obs.NewBus(0), obs.NewStats()))
		}
		seedKeys(t, r, 60)
		if _, err := r.Scan(0, 60, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := r.MultiGet([]core.Val{1, 2, 3, 40, 50}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Compact(); err != nil {
			t.Fatal(err)
		}
		return r.NowNS()
	}
	if plain, observed := run(false), run(true); plain != observed {
		t.Fatalf("observed pooled run consumed %g sim ns, unobserved %g", observed, plain)
	}
}
