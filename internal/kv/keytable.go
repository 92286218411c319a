package kv

// The one container behind kv's per-key lookups: the view's index, the
// read cache's key→slab index and the prefetcher's successor tables.
// A served Get probes it about five times, so it is a plain
// open-addressing table rather than a Go map: one slice of interleaved
// key/value pairs (a hit touches one cache line), a fixed multiplicative
// hash, linear probing, and deletion by backward shift, so snoops and
// evictions leave no tombstones to lengthen later probes.
//
// The hash has no per-process seed, so a run's probe sequence, like its
// results, repeats bit for bit. It is not flood-resistant: a key set
// built to share a home slot degrades every probe to a scan of the run.
// kv's keys come from its own clients and benchmarks, not from an
// adversary. Nothing ranges over a table; callers that need an order
// keep one beside it (the view's sorted key set, the cache's LRU list).

import (
	"math/bits"

	"cxl0/internal/core"
)

// fibonacci is 2^64 divided by the golden ratio, rounded to odd: the
// multiplier of Fibonacci hashing, whose high bits spread dense keys.
const fibonacci = 0x9E3779B97F4A7C15

// minKeySlots is the smallest table allocated.
const minKeySlots = 8

// keyTable maps a key to a value. Any key but -1 may be stored (kv's
// keys are >= 0). The zero value is an empty table.
type keyTable struct {
	// slots has a power-of-two length; it is filled to at most 3/4.
	slots []keyEntry
	// n is the number of keys stored.
	n int
	// shift is 64 - log2(len(slots)): a hash's high bits pick the home.
	shift uint
}

// keyEntry is one slot. key holds the stored key plus one, so the zero
// slot is empty: a new or cleared table needs no fill loop.
type keyEntry struct {
	key, val core.Val
}

// newKeyTable returns a table that holds hint keys without growing.
func newKeyTable(hint int) keyTable {
	var t keyTable
	t.reset(hint)
	return t
}

// alloc replaces the slots with size empty ones.
func (t *keyTable) alloc(size int) {
	t.slots = make([]keyEntry, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home returns the slot a stored key's probe starts at.
func (t *keyTable) home(k core.Val) int { return int(uint64(k) * fibonacci >> t.shift) }

// find returns the slot holding stored key k, or the empty slot that
// ends k's probe run when the table does not hold it.
func (t *keyTable) find(k core.Val) int {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != k && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// len returns the number of keys stored.
func (t *keyTable) len() int { return t.n }

// slot is the table's one probe: it returns the slot holding key and true,
// or, when key is not stored, the empty slot that ends key's probe run —
// where insertAt puts it — and false (-1 for a table with no keys).
func (t *keyTable) slot(key core.Val) (int, bool) {
	if t.n == 0 {
		return -1, false
	}
	i := t.find(key + 1)
	return i, t.slots[i].key != 0
}

// valAt returns the value stored at slot i, which holds a key.
func (t *keyTable) valAt(i int) core.Val { return t.slots[i].val }

// get returns key's value and whether key is stored.
func (t *keyTable) get(key core.Val) (core.Val, bool) {
	i, ok := t.slot(key)
	if !ok {
		return 0, false
	}
	return t.slots[i].val, true
}

// set stores val under key.
func (t *keyTable) set(key, val core.Val) {
	i, ok := t.slot(key)
	if ok {
		t.slots[i].val = val
		return
	}
	t.insertAt(i, key, val)
}

// insertAt stores val under key, which is not stored, at slot i: the slot
// slot returned for key, with no insert or del since but a del that
// afterDel has moved i past. A key that would fill the table past 3/4
// doubles it first and takes the slot a new probe finds.
func (t *keyTable) insertAt(i int, key, val core.Val) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.alloc(max(minKeySlots, 2*len(old)))
		for _, e := range old {
			if e.key != 0 {
				t.slots[t.find(e.key)] = e
			}
		}
		i = -1
	}
	if i < 0 {
		i = t.find(key + 1)
	}
	t.slots[i] = keyEntry{key + 1, val}
	t.n++
}

// del removes key, if stored, and returns the slot it leaves empty (-1
// when key was not stored). Each entry after the hole in its probe run
// moves back into the hole when the hole lies between its home and its
// slot, so every stored key stays reachable from its home with no
// tombstone left behind.
func (t *keyTable) del(key core.Val) int {
	hole, ok := t.slot(key)
	if !ok {
		return -1
	}
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = keyEntry{}
	t.n--
	return hole
}

// afterDel returns the slot insertAt takes for key, whose probe ended at
// the empty slot i, after a del left slot hole empty (-1: none). A del
// moves entries only into slots that were full, so i is still empty; but
// when hole lies between key's home and i, key's probe now stops at hole.
func (t *keyTable) afterDel(key core.Val, i, hole int) int {
	if i < 0 || hole < 0 {
		return i
	}
	mask := len(t.slots) - 1
	if home := t.home(key + 1); (hole-home)&mask < (i-home)&mask {
		return hole
	}
	return i
}

// clear removes every key and keeps the slots.
func (t *keyTable) clear() {
	clear(t.slots)
	t.n = 0
}

// reset empties the table for hint keys: it keeps its slots when they
// hold hint keys at 3/4 load, else it allocates new ones.
func (t *keyTable) reset(hint int) {
	size := minKeySlots
	for 3*size < 4*hint {
		size *= 2
	}
	if size > len(t.slots) {
		t.alloc(size)
	}
	t.clear()
}
