package kv

// The per-front-end read cache (Config.ReadCache > 0). Every Get pays
// the simulated cost of loading the value from the owning shard's
// disaggregated memory; a front end that recently served a key can
// instead answer from a node-local volatile copy — the local cache tier
// CXL-SpecKV and XL-Share layer over disaggregated memory (PAPERS.md).
// The copy follows the read-only half of MESI: an entry present is a
// Shared line — the owning device keeps its copy, and the front end never
// writes through the cache — and an entry absent is an Invalid one. A
// fill installs the entry; every write path that can change the key's
// visible state snoops it out inline, under the same store lock that
// changes the state. There is no side channel to race with: a reader
// either sees the entry before the snoop (and the old value was still
// the visible state, because the snoop happens with the lock held before
// the new state is readable) or after it (and misses to the
// authoritative medium).
//
// What "every write path" means, precisely, is one rule: a cached copy
// dies when its key's visible state moves, or when the front end dies.
// One function per scope of move is the only place its snoop is issued
// (the invalidation table in docs/caching.md; TestSeams holds the
// package to it):
//
//   - one key: keyMoved, exactly when the view takes a record — at the
//     write step (append: Put/Delete/Apply) when the write is
//     acknowledged as it is written, at the ack step (ackRange — an
//     in-place commit, a flight's retirement, recovery's salvage) under
//     the pipeline (docs/pipeline.md). A pipelined write step moves
//     nothing a read sees, so it snoops nothing: the copy still holds
//     the key's last acked state until the commit moves the view past it.
//   - one bucket: flipBucket — a migration's flip, in line or redone by
//     recovery.
//   - one shard: invalidateShardLocked — its state replaced (compaction's
//     reclaim, recovery's rebuild) or moved by a crash, whose takeRest
//     takes every write still waiting: under a batched strategy a read
//     can then cache a visible-but-unacknowledged value that recovery
//     may legitimately drop, and the copy must go with it. A partition
//     or a heal moves neither the medium nor the view: every read path
//     denies a partitioned shard before it looks at the cache, and the
//     only move of its keys meanwhile is a bucket flip, which snoops.
//   - everything: CrashFront — the cache is front-end volatile state.
//
// A cache hit costs nothing on the simulated clock, like the index
// probe: the copy lives in the front end's local DRAM. Only found
// values are cached (a lookup that misses the index pays no Load either
// way). Capacity is bounded; eviction is exact LRU, which is
// deterministic — no randomness, no map iteration.

import "cxl0/internal/core"

// cacheEntry is one cached key and its value, threaded on the LRU list
// (head = most recently used). Its presence in the map is the Shared
// state; removal is the snoop to Invalid.
type cacheEntry struct {
	key, val   core.Val
	prev, next *cacheEntry
}

// readCache is the bounded key→value cache one Store front end owns.
// All state is guarded by the owning store's mu: every method is
// ...Locked, called with the store lock held.
type readCache struct {
	capacity int
	// entries indexes the LRU list by key; head/tail are the list ends
	// (head = most recently used).
	//cxl0:guarded-by mu
	entries map[core.Val]*cacheEntry
	//cxl0:guarded-by mu
	head *cacheEntry
	//cxl0:guarded-by mu
	tail *cacheEntry
	// ctr is the owning store's counter block: lookups on the served-read
	// path count into CacheHits/CacheMisses (the hit rate's denominator is
	// exactly the reads that resolved a value), speculative prefetch
	// fills into SpeculativeFills and the inline snoops into
	// CacheInvalidations.
	//cxl0:guarded-by mu
	ctr *Counters
}

// newReadCache builds a cache bounded to capacity entries (capacity >= 1;
// the caller gates on Config.ReadCache > 0) that counts into ctr.
//
//cxl0:locked mu
func newReadCache(capacity int, ctr *Counters) *readCache {
	return &readCache{capacity: capacity, entries: make(map[core.Val]*cacheEntry, capacity), ctr: ctr}
}

// unlinkLocked removes e from the LRU list (not from the map).
func (c *readCache) unlinkLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFrontLocked inserts e at the list head (most recently used).
func (c *readCache) pushFrontLocked(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// lookupLocked consults the cache on the served-read path: a present
// entry is a hit (served locally, zero simulated cost, promoted to MRU), and
// anything else a miss the caller resolves with a paid Load and fills
// back. Counts hits and misses; speculative probes use containsLocked.
func (c *readCache) lookupLocked(key core.Val) (core.Val, bool) {
	e, ok := c.entries[key]
	if !ok {
		c.ctr.CacheMisses++
		return 0, false
	}
	c.ctr.CacheHits++
	if c.head != e {
		c.unlinkLocked(e)
		c.pushFrontLocked(e)
	}
	return e.val, true
}

// containsLocked reports whether key is cached, without touching the
// counters or the LRU order — the prefetcher's probe.
func (c *readCache) containsLocked(key core.Val) bool {
	_, ok := c.entries[key]
	return ok
}

// fillLocked installs the value just read (or speculatively prefetched)
// for key, Shared: the owning shard keeps its copy, and ownership stays
// with the device — the front end never writes through the cache, so it
// never needs E/M. At capacity the LRU tail is evicted and its entry
// reused, so a fill into a full cache allocates nothing.
func (c *readCache) fillLocked(key, val core.Val, speculative bool) {
	if e, ok := c.entries[key]; ok {
		e.val = val
		if c.head != e {
			c.unlinkLocked(e)
			c.pushFrontLocked(e)
		}
		if speculative {
			c.ctr.SpeculativeFills++
		}
		return
	}
	var e *cacheEntry
	if len(c.entries) >= c.capacity {
		e = c.tail
		c.unlinkLocked(e)
		delete(c.entries, e.key)
		*e = cacheEntry{key: key, val: val}
	} else {
		e = &cacheEntry{key: key, val: val}
	}
	c.entries[key] = e
	c.pushFrontLocked(e)
	if speculative {
		c.ctr.SpeculativeFills++
	}
}

// invalidateKeyLocked snoops key's entry out — the inline coherence
// action keyMoved performs for a key whose visible state moved. A no-op
// for an uncached key, and — like the other invalidate methods — on a
// nil cache (Config.ReadCache == 0), so write and churn paths call them
// unguarded.
func (c *readCache) invalidateKeyLocked(key core.Val) {
	if c == nil {
		return
	}
	e, ok := c.entries[key]
	if !ok {
		return
	}
	c.unlinkLocked(e)
	delete(c.entries, key)
	c.ctr.CacheInvalidations++
}

// invalidateMatchLocked snoops every cached key matching pred — the
// shard- and bucket-scoped invalidations (invalidateShardLocked,
// flipBucket). Walks the LRU list, never the map: the walk order is the
// deterministic recency order, so the sweep is replay-safe.
func (c *readCache) invalidateMatchLocked(pred func(core.Val) bool) {
	if c == nil {
		return
	}
	for e := c.head; e != nil; {
		next := e.next
		if pred(e.key) {
			c.unlinkLocked(e)
			delete(c.entries, e.key)
			c.ctr.CacheInvalidations++
		}
		e = next
	}
}

// invalidateShardLocked snoops every cached key shard i serves — the
// shard-scoped moves of visible state (crash, recovery, compaction
// reclaim).
func (s *Store) invalidateShardLocked(i int) {
	s.cache.invalidateMatchLocked(func(k core.Val) bool { return s.shardOf(k) == i })
}

// invalidateAllLocked drops every entry — front-end failover
// (CrashFront): the cache is front-end volatile state and dies with the
// front's machine.
func (c *readCache) invalidateAllLocked() {
	if c == nil {
		return
	}
	c.ctr.CacheInvalidations += uint64(len(c.entries))
	c.head, c.tail = nil, nil
	c.entries = make(map[core.Val]*cacheEntry, c.capacity)
}

// lenLocked returns the current entry count (gauges and tests).
func (c *readCache) lenLocked() int { return len(c.entries) }
