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
// way). Capacity is bounded, and the entries are one slab allocated when
// the store opens, so no fill allocates an entry; eviction is exact LRU,
// which is deterministic — no randomness, no map iteration.

import "cxl0/internal/core"

// cacheEntry is one slot of the cache's slab: a cached key and its
// value, threaded on the LRU list (head = most recently used) by slab
// index, or a free slot threaded on the free list through next. Its
// presence in the key table is the Shared state; removal is the snoop to
// Invalid.
type cacheEntry struct {
	key, val   core.Val
	prev, next int32 // slab indices; noSlot at a list end
}

// noSlot is the nil slab index.
const noSlot int32 = -1

// readCache is the bounded key→value cache one Store front end owns.
// Its entries live in one slab allocated at construction, and a snooped
// or evicted entry's slot goes back on the free list. All state is
// guarded by the owning store's mu: every method is ...Locked, called
// with the store lock held.
type readCache struct {
	// slab holds every entry, live or free; its length is the capacity.
	//cxl0:guarded-by mu
	slab []cacheEntry
	// entries takes a key to its slab index; head/tail are the LRU
	// list's ends (head = most recently used) and free the free list's
	// head.
	//cxl0:guarded-by mu
	entries keyTable
	//cxl0:guarded-by mu
	head, tail, free int32
	// ctr is the owning store's counter block: lookups on the served-read
	// path count into CacheHits/CacheMisses (the hit rate's denominator is
	// exactly the reads that resolved a value), speculative prefetch
	// fills into SpeculativeFills and the inline snoops into
	// CacheInvalidations.
	//cxl0:guarded-by mu
	ctr *Counters
}

// newReadCache builds a cache bounded to capacity entries (1 <= capacity
// <= math.MaxInt32; the caller gates on Config.ReadCache > 0) that
// counts into ctr.
//
//cxl0:locked mu
func newReadCache(capacity int, ctr *Counters) *readCache {
	c := &readCache{slab: make([]cacheEntry, capacity), entries: newKeyTable(capacity), ctr: ctr}
	c.resetLocked()
	return c
}

// resetLocked empties the lists: no entry is live and every slot is free.
func (c *readCache) resetLocked() {
	c.head, c.tail, c.free = noSlot, noSlot, 0
	for i := range c.slab {
		c.slab[i].next = int32(i) + 1
	}
	c.slab[len(c.slab)-1].next = noSlot
}

// unlinkLocked removes slot i from the LRU list (not from the key table).
func (c *readCache) unlinkLocked(i int32) {
	e := &c.slab[i]
	if e.prev != noSlot {
		c.slab[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != noSlot {
		c.slab[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFrontLocked inserts slot i at the list head (most recently used).
func (c *readCache) pushFrontLocked(i int32) {
	e := &c.slab[i]
	e.prev, e.next = noSlot, c.head
	if c.head != noSlot {
		c.slab[c.head].prev = i
	}
	c.head = i
	if c.tail == noSlot {
		c.tail = i
	}
}

// promoteLocked makes slot i the most recently used.
func (c *readCache) promoteLocked(i int32) {
	if c.head != i {
		c.unlinkLocked(i)
		c.pushFrontLocked(i)
	}
}

// dropLocked snoops slot i's entry out: off the LRU list and the key
// table, onto the free list. It returns the key-table slot the removal
// left empty (keyTable.del).
func (c *readCache) dropLocked(i int32) int {
	c.unlinkLocked(i)
	hole := c.entries.del(c.slab[i].key)
	c.slab[i].next = c.free
	c.free = i
	return hole
}

// lookupLocked consults the cache on the served-read path: a present
// entry is a hit (served locally, zero simulated cost, promoted to MRU), and
// anything else a miss the caller resolves with a paid Load and fills
// back. Counts hits and misses; speculative probes use probeLocked.
func (c *readCache) lookupLocked(key core.Val) (core.Val, bool) {
	i, ok := c.entries.get(key)
	if !ok {
		c.ctr.CacheMisses++
		return 0, false
	}
	c.ctr.CacheHits++
	c.promoteLocked(int32(i))
	return c.slab[i].val, true
}

// probeLocked reports whether key is cached, without touching the
// counters or the LRU order — the prefetcher's probe — and returns its
// key-table slot: for a key not cached, the one insertLocked gives it if
// nothing is filled or snooped first.
func (c *readCache) probeLocked(key core.Val) (int, bool) { return c.entries.slot(key) }

// fillLocked installs the value a demand read just loaded for key. One
// probe of the key table finds the key's entry, which takes the value, or
// the slot a new entry takes (insertLocked).
func (c *readCache) fillLocked(key, val core.Val) {
	slot, ok := c.entries.slot(key)
	if !ok {
		c.insertLocked(slot, key, val, false)
		return
	}
	i := int32(c.entries.valAt(slot))
	c.slab[i].val = val
	c.promoteLocked(i)
}

// insertLocked installs key, which is not cached, with val, at key-table
// slot slot (probeLocked's or fillLocked's), Shared: the owning shard
// keeps its copy, and ownership stays with the device — the front end
// never writes through the cache, so it never needs E/M. The entry takes a
// free slab slot, and a full cache first evicts its LRU tail to the free
// list; the eviction may empty a key-table slot nearer key's home, which
// key then takes (keyTable.afterDel).
func (c *readCache) insertLocked(slot int, key, val core.Val, speculative bool) {
	if speculative {
		c.ctr.SpeculativeFills++
	}
	if c.free == noSlot {
		slot = c.entries.afterDel(key, slot, c.dropLocked(c.tail))
	}
	i := c.free
	c.free = c.slab[i].next
	c.slab[i].key, c.slab[i].val = key, val
	c.entries.insertAt(slot, key, core.Val(i))
	c.pushFrontLocked(i)
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
	if i, ok := c.entries.get(key); ok {
		c.dropLocked(int32(i))
		c.ctr.CacheInvalidations++
	}
}

// invalidateMatchLocked snoops every cached key matching pred — the
// shard- and bucket-scoped invalidations (invalidateShardLocked,
// flipBucket). Walks the LRU list, never the key table: the walk order
// is the deterministic recency order, so the sweep is replay-safe.
func (c *readCache) invalidateMatchLocked(pred func(core.Val) bool) {
	if c == nil {
		return
	}
	for i := c.head; i != noSlot; {
		next := c.slab[i].next
		if pred(c.slab[i].key) {
			c.dropLocked(i)
			c.ctr.CacheInvalidations++
		}
		i = next
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
	c.ctr.CacheInvalidations += uint64(c.entries.len())
	c.entries.clear()
	c.resetLocked()
}

// lenLocked returns the current entry count (gauges and tests).
func (c *readCache) lenLocked() int { return c.entries.len() }
