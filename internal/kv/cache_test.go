package kv

import (
	"errors"
	"testing"

	"cxl0/internal/core"
)

// keyOnShard returns the first key >= from the store currently routes to
// shard want.
func keyOnShard(t *testing.T, st *Store, want int, from core.Val) core.Val {
	t.Helper()
	for k := from; k < from+10_000; k++ {
		if st.ShardOf(k) == want {
			return k
		}
	}
	t.Fatalf("no key routed to shard %d", want)
	return 0
}

// TestServedOnlyCounters pins the service-counter contract Metrics
// documents: Puts/Gets/Deletes/Scans/MultiGets/Batches count operations served,
// so a read or write denied by frontDown/down/partitioned must not
// count. (The pre-denial increments this test pins against also diluted
// the read cache's hit-rate denominator.)
func TestServedOnlyCounters(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 64, Strategy: MStoreEach, Seed: 5})
	k0 := keyOnShard(t, st, 0, 0)
	k1 := keyOnShard(t, st, 1, 0)
	for _, k := range []core.Val{k0, k1} {
		if _, err := st.Put(k, 100); err != nil {
			t.Fatal(err)
		}
	}
	base := st.Metrics()

	// A down shard denies point ops and scans over its keys without
	// counting them.
	st.Crash(0)
	if _, _, err := st.Get(k0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("get on down shard: %v", err)
	}
	if _, err := st.Put(k0, 200); !errors.Is(err, ErrShardDown) {
		t.Fatalf("put on down shard: %v", err)
	}
	if _, err := st.Delete(k0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("delete on down shard: %v", err)
	}
	if _, err := st.Apply(new(Batch).Put(k0, 300)); !errors.Is(err, ErrShardDown) {
		t.Fatalf("apply on down shard: %v", err)
	}
	if _, err := st.Scan(k0, k0+1, 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("scan over a down shard's key: %v", err)
	}
	if _, err := st.MultiGet([]core.Val{k0, k1}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("multiget whose first key is on a down shard: %v", err)
	}
	m := st.Metrics()
	if m.Gets != base.Gets || m.Puts != base.Puts || m.Deletes != base.Deletes ||
		m.Scans != base.Scans || m.MultiGets != base.MultiGets || m.Batches != base.Batches {
		t.Fatalf("denied ops counted: %+v vs base %+v", m, base)
	}
	// A MultiGet that resolved a key before the down shard cut it short
	// ran, like an Apply that wrote a record: it counts, with that key.
	if _, err := st.MultiGet([]core.Val{k1, k0}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("multiget with a key on a down shard: %v", err)
	}
	m = st.Metrics()
	if m.MultiGets != base.MultiGets+1 || m.Gets != base.Gets+1 {
		t.Fatalf("multiget cut short after one key: MultiGets %d, Gets %d, want %d, %d",
			m.MultiGets, m.Gets, base.MultiGets+1, base.Gets+1)
	}
	if _, err := st.Recover(0); err != nil {
		t.Fatal(err)
	}

	// A partitioned shard denies the same way; a MultiGet's placeholder
	// lookups for its keys are denied, not served, so only the other
	// keys' resolutions count as Gets.
	st.Partition(1)
	if _, _, err := st.Get(k1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("get on partitioned shard: %v", err)
	}
	if _, err := st.Put(k1, 200); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put on partitioned shard: %v", err)
	}
	base = st.Metrics()
	out, err := st.MultiGet([]core.Val{k0, k1})
	var partial *PartialResultError
	if !errors.As(err, &partial) || len(out) != 2 {
		t.Fatalf("multiget = (%v, %v), want partial result", out, err)
	}
	m = st.Metrics()
	if m.MultiGets != base.MultiGets+1 {
		t.Fatalf("MultiGets = %d, want %d", m.MultiGets, base.MultiGets+1)
	}
	if m.Gets != base.Gets+1 {
		t.Fatalf("Gets = %d after partial multiget, want %d (served key only)", m.Gets, base.Gets+1)
	}
	st.Heal(1)

	// A crashed front end denies everything before any counter moves.
	base = st.Metrics()
	st.CrashFront()
	if _, _, err := st.Get(k0); !errors.Is(err, ErrFrontDown) {
		t.Fatalf("get with front down: %v", err)
	}
	if _, err := st.Put(k0, 400); !errors.Is(err, ErrFrontDown) {
		t.Fatalf("put with front down: %v", err)
	}
	if _, err := st.Delete(k0); !errors.Is(err, ErrFrontDown) {
		t.Fatalf("delete with front down: %v", err)
	}
	if _, err := st.Scan(0, 1000, 0); !errors.Is(err, ErrFrontDown) {
		t.Fatalf("scan with front down: %v", err)
	}
	if _, err := st.MultiGet([]core.Val{k0}); !errors.Is(err, ErrFrontDown) {
		t.Fatalf("multiget with front down: %v", err)
	}
	if _, err := st.Apply(new(Batch).Put(k0, 450)); !errors.Is(err, ErrFrontDown) {
		t.Fatalf("apply with front down: %v", err)
	}
	m = st.Metrics()
	if m.Gets != base.Gets || m.Puts != base.Puts || m.Deletes != base.Deletes ||
		m.Scans != base.Scans || m.MultiGets != base.MultiGets || m.Batches != base.Batches {
		t.Fatalf("front-down denials counted: %+v vs base %+v", m, base)
	}
	if _, err := st.RecoverFront(); err != nil {
		t.Fatal(err)
	}

	// Served ops still count, including each key a MultiGet resolves and
	// each record an Apply appends.
	base = st.Metrics()
	if _, _, err := st.Get(k0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MultiGet([]core.Val{k0, k1}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(new(Batch).Put(k0, 500).Delete(k1)); err != nil {
		t.Fatal(err)
	}
	m = st.Metrics()
	if m.Gets != base.Gets+3 || m.Puts != base.Puts+1 || m.Deletes != base.Deletes+1 || m.Batches != base.Batches+1 {
		t.Fatalf("served ops miscounted: %+v vs base %+v", m, base)
	}
}

// TestReadCacheServesAndInvalidates exercises the cache protocol on one
// store: a repeated read hits at zero simulated cost, and every write
// path that changes the key's visible state snoops the cached copy.
func TestReadCacheServesAndInvalidates(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 64, Strategy: MStoreEach, Seed: 5, ReadCache: 16})
	for k := core.Val(0); k < 8; k++ {
		if _, err := st.Put(k, k+100); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Get(3); err != nil {
		t.Fatal(err)
	}
	before := st.NowNS()
	v, ok, err := st.Get(3)
	if err != nil || !ok || v != 103 {
		t.Fatalf("cached get = (%d, %v, %v)", v, ok, err)
	}
	if after := st.NowNS(); after != before {
		t.Fatalf("cache hit advanced the simulated clock: %v -> %v", before, after)
	}
	m := st.Metrics()
	if m.CacheHits != 1 || m.CacheMisses == 0 {
		t.Fatalf("hits/misses = %d/%d, want 1 hit", m.CacheHits, m.CacheMisses)
	}

	// Put invalidates: the next read pays the Load and sees the new value.
	if _, err := st.Put(3, 999); err != nil {
		t.Fatal(err)
	}
	before = st.NowNS()
	if v, _, _ := st.Get(3); v != 999 {
		t.Fatalf("stale read after put: %d", v)
	}
	if st.NowNS() == before {
		t.Fatal("read after invalidation did not pay the Load")
	}

	// Delete invalidates: the cached copy must not resurrect the key.
	if _, err := st.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(3); ok {
		t.Fatal("cached copy resurrected a deleted key")
	}

	// Crash/recover invalidates the shard's keys wholesale.
	k0 := keyOnShard(t, st, 0, 0)
	if _, err := st.Put(k0, 777); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(k0); err != nil { // fill
		t.Fatal(err)
	}
	st.Crash(0)
	if _, err := st.Recover(0); err != nil {
		t.Fatal(err)
	}
	before = st.NowNS()
	if v, ok, _ := st.Get(k0); !ok || v != 777 {
		t.Fatalf("post-recovery read = (%d, %v)", v, ok)
	}
	if st.NowNS() == before {
		t.Fatal("post-recovery read served from the invalidated cache")
	}

	// The capacity bound holds and evictions are counted.
	small := openTest(t, Config{Shards: 1, Capacity: 64, Strategy: MStoreEach, Seed: 5, ReadCache: 2})
	for k := core.Val(0); k < 4; k++ {
		if _, err := small.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := small.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if m := small.Metrics(); m.CacheSize > 2 {
		t.Fatalf("cache size %d exceeds capacity 2", m.CacheSize)
	}
}

// TestPrefetchWarmsCache drives the two predictor signals end to end: a
// sequential run prefetches the keys ahead of it, and the Markov
// successor table prefetches a learned chain — both land as speculative
// fills that later demand reads hit.
func TestPrefetchWarmsCache(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 128, Strategy: MStoreEach, Seed: 5, ReadCache: 32, Prefetch: true})
	for k := core.Val(0); k < 40; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}

	// Scan-run: three adjacent reads establish a run; the keys ahead are
	// speculatively filled, so the run's continuation hits.
	for k := core.Val(10); k <= 12; k++ {
		if _, _, err := st.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	m := st.Metrics()
	if m.SpeculativeFills == 0 {
		t.Fatalf("no speculative fills after a 3-read run: %+v", m)
	}
	before := st.NowNS()
	if v, ok, _ := st.Get(13); !ok || v != 14 {
		t.Fatalf("run continuation = (%d, %v)", v, ok)
	}
	if st.NowNS() != before {
		t.Fatal("prefetched run continuation paid a Load")
	}

	// A speculative fill is coherent like any fill: overwriting the
	// prefetched key snoops it, so the demand read sees the new value.
	hits := st.Metrics().CacheHits
	if _, err := st.Put(14, 5000); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := st.Get(14); v != 5000 {
		t.Fatalf("stale speculative value served: %d", v)
	}
	if st.Metrics().CacheHits != hits {
		t.Fatal("read after invalidation counted as a hit")
	}

	// Markov: reads alternating between two keys of one shard learn the
	// successor edge; serving the first then prefetches the second.
	a := keyOnShard(t, st, 0, 20)
	b := keyOnShard(t, st, 0, a+1)
	for i := 0; i < 3; i++ {
		for _, k := range []core.Val{a, b} {
			if _, _, err := st.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	mm := st.Metrics()
	if mm.CacheHits <= hits {
		t.Fatalf("alternating reads never hit: %+v", mm)
	}
}

// TestReadPathDoesNotAllocate: in steady state the cached read path
// allocates nothing — a warm Get with the prefetcher proposing keys (its
// proposals live in the predictor's buffer), a fill into a full cache
// (the evicted LRU slot is reused), and the fills after every kind of
// snoop (the snooped slots go back to the slab's free list).
func TestReadPathDoesNotAllocate(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Capacity: 128, Strategy: MStoreEach, Seed: 5, ReadCache: 32, Prefetch: true})
	const keys = 16
	for k := core.Val(0); k < keys+scanRunAhead; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	// Sweeps of the keys in order: a sequential run and a learned chain, so
	// every Get is followed by proposals, all of them already cached.
	i := 0
	get := func() {
		k := core.Val(i % keys)
		if v, ok, err := st.Get(k); err != nil || !ok || v != k+1 {
			t.Fatalf("Get(%d) = %d, %v, %v", k, v, ok, err)
		}
		i++
	}
	for ; i < 4*keys; get() {
	}
	hits := st.Metrics().CacheHits
	if allocs := testing.AllocsPerRun(10*keys, get); allocs != 0 {
		t.Errorf("a warm cached Get with prefetch allocates %v times", allocs)
	}
	if got := st.Metrics().CacheHits - hits; got < 10*keys {
		t.Fatalf("%d hits in %d measured Gets: the reads were not served by the cache", got, 10*keys+1)
	}

	var ctr Counters
	c := newReadCache(256, &ctr)
	cached := func(k core.Val) bool {
		_, ok := c.probeLocked(k)
		return ok
	}
	k := core.Val(0)
	for ; k < 256; k++ {
		c.fillLocked(k, k)
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.fillLocked(k, k); k++ }); allocs != 0 {
		t.Errorf("a fill into a full cache allocates %v times", allocs)
	}
	if c.lenLocked() != 256 || !cached(k-1) || cached(k-257) {
		t.Fatalf("after the fills the cache holds %d entries, the last key %v, the 257th last %v",
			c.lenLocked(), cached(k-1), cached(k-257))
	}

	// Each snoop drops entries and the fills after it take their slots
	// back: the one key keyMoved snoops, a sweep (invalidateShardLocked's,
	// flipBucket's) and every entry at once (CrashFront).
	for _, snoop := range []struct {
		name string
		drop func() int // snoops, and returns the entries it dropped
	}{
		{"a key snoop", func() int { c.invalidateKeyLocked(k - 256); return 1 }},
		{"a sweep", func() int {
			n := c.lenLocked()
			c.invalidateMatchLocked(func(v core.Val) bool { return v%2 == 0 })
			return n - c.lenLocked()
		}},
		{"the front end's crash", func() int { c.invalidateAllLocked(); return 256 }},
	} {
		refill := func() {
			for n := snoop.drop(); n > 0; n-- {
				c.fillLocked(k, k)
				k++
			}
		}
		if allocs := testing.AllocsPerRun(100, refill); allocs != 0 {
			t.Errorf("the fills after %s allocate %v times", snoop.name, allocs)
		}
		if c.lenLocked() != 256 || !cached(k-1) {
			t.Fatalf("after the fills after %s the cache holds %d entries, the last key %v",
				snoop.name, c.lenLocked(), cached(k-1))
		}
	}
}
