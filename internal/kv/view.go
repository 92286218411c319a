package kv

// A shard's read-visible state: a plain replay of the log's records
// [0, taken) onto the committed snapshot the view was last re-homed to.
// The index (a keyTable, keytable.go) takes a key to the record a read
// of it is served, one slot encoding says whether that record lives in
// the log or in the snapshot, and the index's key set is kept sorted, so a range read
// costs what it yields and not what the shard holds. A record is taken
// once, in slot order: at its write step when the write is acknowledged
// as it is written, at its ack step under the commit pipeline
// (docs/pipeline.md) — so a read never observes a value a crash could
// still take back. All of it lives in this file and is touched nowhere
// else (TestSeams): the store drives the view through the per-key take
// (and snoops its read cache, see Store.keyMoved) and through the bulk
// steps a crash, compaction, recovery and bucket migration need. No
// method here takes or reaches a *Store: the view knows keys, slots and
// the log, not routing, caches or clocks.

import (
	"iter"
	"slices"

	"cxl0/internal/core"
)

// view is the volatile read-visible state of one shard.
type view struct {
	// logCap is the base of the slot encoding (the shard's log
	// capacity): encoded slots below it are log slots, logCap+i is slot
	// i of the committed snapshot (compaction re-homes live records there).
	logCap int
	// index takes a key to the encoded slot of the record reads of it
	// are served.
	index keyTable
	// keys is index's key set in ascending order. It moves only when a
	// key enters or leaves index, never on an overwrite.
	keys []core.Val
	// taken is the first log slot the view has not taken: no client write
	// at or past it is visible. A take moves it past the record taken; a
	// re-homing and recovery's full replay move it with the log; a
	// bucket-scoped replay leaves it. It anchors the pipelined commit
	// path's crash-safety argument, so it may only move under the store
	// lock.
	//cxl0:guarded-by mu
	taken int
}

// decode splits an encoded slot into a region-relative slot and whether
// that region is the snapshot (else the log).
func (v *view) decode(slot int) (i int, inSnap bool) {
	if slot >= v.logCap {
		return slot - v.logCap, true
	}
	return slot, false
}

// live returns the number of visible keys.
func (v *view) live() int { return v.index.len() }

// visible resolves key to the encoded slot a read is served from.
func (v *view) visible(key core.Val) (slot int, ok bool) {
	s, ok := v.index.get(key)
	return int(s), ok
}

// cursor walks the keys of one view in [lo, hi), in ascending key order,
// one step per advance. While ok, key is the head; resolve gives the
// encoded slot a read of it is served from, so a head the caller never
// reads costs no lookup. The view must not move between seek and the
// last advance or resolve.
type cursor struct {
	v   *view
	key core.Val
	ok  bool
	// v.keys[i:end] are the keys in range not yet walked.
	i, end int
}

// seek positions c on the first key of [lo, hi) and returns how many
// keys the range holds. It costs one binary search to lo and a second to
// hi only when hi falls inside the key set (a range read open at the
// top, as workload E's, ends at the last key): a caller that stops after
// n keys has paid O(log live + n).
func (v *view) seek(c *cursor, lo, hi core.Val) (n int) {
	c.v = v
	c.i, _ = slices.BinarySearch(v.keys, lo)
	c.end = len(v.keys)
	if c.end > 0 && hi <= v.keys[c.end-1] {
		n, _ := slices.BinarySearch(v.keys[c.i:], hi)
		c.end = c.i + n
	}
	n = c.end - c.i
	c.advance()
	return n
}

// advance steps c to the next key, or clears ok past the last one.
func (c *cursor) advance() {
	if c.ok = c.i < c.end; c.ok {
		c.key = c.v.keys[c.i]
		c.i++
	}
}

// resolve returns the encoded slot the head is read from.
func (c *cursor) resolve() int {
	slot, _ := c.v.visible(c.key)
	return slot
}

// all yields every visible key with its encoded slot, in ascending key
// order — what compaction folds and migration copies once they have
// drained the pipeline.
func (v *view) all() iter.Seq2[core.Val, int] {
	return func(yield func(core.Val, int) bool) {
		for _, k := range v.keys {
			if slot, _ := v.visible(k); !yield(k, slot) {
				return
			}
		}
	}
}

// set moves key's visible state to slot, or drops the key when the
// record there is a tombstone. The ordered key set follows only when the
// index's size says the key entered or left it.
func (v *view) set(key core.Val, slot int, live bool) {
	n := v.index.len()
	if live {
		v.index.set(key, core.Val(slot))
	} else {
		v.index.del(key)
	}
	if v.index.len() == n {
		return
	}
	i, _ := slices.BinarySearch(v.keys, key)
	if live {
		v.keys = slices.Insert(v.keys, i, key)
	} else {
		v.keys = slices.Delete(v.keys, i, i+1)
	}
}

// take is the per-key step: key's record at log slot slot (a tombstone
// when !live) becomes what reads of key are served, unless the view took
// that slot already. It reports whether it did.
//
//cxl0:locked mu
func (v *view) take(key core.Val, slot int, live bool) bool {
	if slot < v.taken {
		return false
	}
	v.set(key, slot, live)
	v.taken = slot + 1
	return true
}

// takeRest takes every client write log holds past the mark — a crash's
// step. Whether they survive is recovery's to decide; until then a down
// shard's view holds them, so a range read that meets one fails instead
// of leaving it out. Move markers and migrated copies are not client
// writes: a copy becomes visible only at its bucket's flip.
//
//cxl0:locked mu
func (v *view) takeRest(log []rec) {
	for slot := v.taken; slot < len(log); slot++ {
		if r := log[slot]; !r.move && !r.copied {
			v.set(r.key, slot, r.val != 0)
		}
	}
	v.taken = len(log)
}

// reset re-homes the view onto a committed snapshot and an empty log:
// record i of snap becomes key snap[i].key's visible state and nothing
// else is live — compaction's reclaim, and the base recovery replays the
// log onto. The index keeps its slots when they hold snap.
//
//cxl0:locked mu
func (v *view) reset(snap []rec) {
	v.index.reset(len(snap))
	v.keys = make([]core.Val, len(snap))
	for i, r := range snap {
		v.index.set(r.key, core.Val(v.logCap+i))
		v.keys[i] = r.key
	}
	// A snapshot is written in key order (compaction folds all()), so
	// this is a check, not a sort, on every path that exists today.
	slices.Sort(v.keys)
	v.taken = 0
}

// drop removes every visible key matching gone (a bucket that moved
// away, keys the shard no longer owns).
func (v *view) drop(gone func(core.Val) bool) {
	v.keys = slices.DeleteFunc(v.keys, func(k core.Val) bool {
		if !gone(k) {
			return false
		}
		v.index.del(k)
		return true
	})
}

// replay applies log record r at slot under the move-marker wipe rule:
// a marker for bucket b supersedes every earlier record of b in the log
// — either the bucket moved away (move-out), or it moved (back) in and
// the copies following the marker carry its authoritative state
// (move-in). Without the wipe, a key deleted while its bucket lived
// elsewhere could resurrect from a pre-migration record. only >= 0
// restricts the replay to that bucket's records (the redo re-index) and
// leaves the mark where it is; -1 replays everything (recovery's full
// rebuild) and takes the slot. Both crash paths must agree on these
// semantics exactly, which is why they share this one implementation.
//
//cxl0:locked mu
func (v *view) replay(slot int, r rec, bucketOf func(core.Val) int, only int) {
	if only < 0 {
		v.taken = slot + 1
	}
	if r.move {
		if b := int(r.key); only < 0 || b == only {
			v.drop(func(k core.Val) bool { return bucketOf(k) == b })
		}
		return
	}
	if only < 0 || bucketOf(r.key) == only {
		v.set(r.key, slot, r.val != 0)
	}
}
