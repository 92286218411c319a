package kv

// A shard's read-visible state. Which record a read of key k is served
// is decided by two volatile maps — the tip index over everything
// appended, and the shadow of keys whose newest record sits past the
// acked-watermark (docs/pipeline.md) — and by one slot encoding that says
// whether a record lives in the log or in the committed snapshot; the
// tip index's key set is also kept sorted, so a range read costs what it
// yields and not what the shard holds. All four live in this file and
// are touched nowhere else (TestSeams): the store drives the view
// through the per-key write and ack steps (and snoops its read cache
// when they say a key moved, see Store.keyMoved) and through the bulk
// steps compaction, recovery and bucket migration need. No method here
// takes or reaches a *Store: the view knows keys, slots and the
// watermark, not routing, caches or clocks.

import (
	"iter"
	"slices"

	"cxl0/internal/core"
)

// shadowEntry is one key's acked-watermark state: what a read must
// serve while newer records of the key sit beyond the watermark.
type shadowEntry struct {
	// exists and slot give the key's newest acked state (slot is an
	// encoded slot; meaningless when !exists).
	exists bool
	slot   int
	// newest is the slot of the key's newest appended record — the
	// entry dies when the watermark passes it.
	newest int
}

// view is the volatile read-visible state of one shard.
type view struct {
	// logCap is the base of the slot encoding (the shard's log
	// capacity): encoded slots below it are log slots, logCap+i is slot
	// i of the committed snapshot (compaction re-homes live records there).
	logCap int
	// index maps a key to the encoded slot of its newest live record.
	index map[core.Val]int
	// keys is index's key set in ascending order. It moves only when a
	// key enters or leaves index, never on an overwrite.
	keys []core.Val
	// shadow holds the acked-watermark read state of keys overwritten
	// past the watermark (nil when empty; always empty at pipeline
	// depth 1). It anchors the pipelined commit path's crash-safety
	// argument, so it may only move under the store lock.
	//cxl0:guarded-by mu
	shadow map[core.Val]shadowEntry
}

// decode splits an encoded slot into a region-relative slot and whether
// that region is the snapshot (else the log).
func (v *view) decode(slot int) (i int, inSnap bool) {
	if slot >= v.logCap {
		return slot - v.logCap, true
	}
	return slot, false
}

// live returns the number of live keys at the tip.
func (v *view) live() int { return len(v.index) }

// tipVisible reports whether nothing is shadowed, in which case every
// tip key is visible at its index slot and a read needs no gate — always
// so at pipeline depth 1, and between flights at any depth.
//
//cxl0:locked mu
func (v *view) tipVisible() bool { return len(v.shadow) == 0 }

// visible resolves key to the encoded slot a read is served from — the
// watermark gate: a key overwritten past the acked-watermark resolves to
// its shadow (last acked) state, so a read never observes a value a
// crash could still take back.
//
//cxl0:locked mu
func (v *view) visible(key core.Val) (slot int, ok bool) {
	if !v.tipVisible() {
		if e, shadowed := v.shadow[key]; shadowed {
			return e.slot, e.exists
		}
	}
	slot, ok = v.index[key]
	return slot, ok
}

// cursor walks the keys of one view in [lo, hi) that have a visible
// state, in ascending key order, one step per advance. When nothing is
// shadowed that is the tip keys in range, stepped through without a
// lookup. Otherwise tip keys pass the watermark gate (a key whose first
// write is still in flight has no visible state and is skipped), merged
// with the keys deleted past the watermark, which left the index but
// whose acked state the shadow still carries. While ok, key is the head;
// resolve gives the encoded slot a read of it is served from. The view
// must not move between seek and the last advance or resolve.
type cursor struct {
	v   *view
	key core.Val
	ok  bool
	// gated is seek's !v.tipVisible(): advance runs the gate, and slot
	// holds the head's slot, only when it is set.
	gated bool
	slot  int
	// v.keys[i:end] are the tip keys in range not yet walked.
	i, end int
	// deleted[d:] are the in-range keys deleted past the watermark not yet
	// yielded, ascending; the backing array is kept from seek to seek.
	deleted []core.Val
	d       int
}

// seek positions c on the first key of [lo, hi) with a visible state and
// returns a bound on the keys the run holds (a tip key the gate hides is
// counted and never yielded). It costs one binary search to lo, a second
// to hi only when hi falls inside the key set (a range read open at the
// top, as workload E's, ends at the last key), and, only while something
// is shadowed, a pass over the shadow, which holds only keys written past
// the watermark — a set bounded by the pipeline's in-flight writes. A
// caller that stops after n keys has paid O(log live + n + shadowed).
//
//cxl0:locked mu
func (v *view) seek(c *cursor, lo, hi core.Val) (atMost int) {
	c.v = v
	c.i, _ = slices.BinarySearch(v.keys, lo)
	c.end = len(v.keys)
	if c.end > 0 && hi <= v.keys[c.end-1] {
		n, _ := slices.BinarySearch(v.keys[c.i:], hi)
		c.end = c.i + n
	}
	c.deleted, c.d = c.deleted[:0], 0
	if c.gated = !v.tipVisible(); c.gated {
		for k, e := range v.shadow { //cxl0:order-insensitive — sorted below
			if _, tip := v.index[k]; !tip && e.exists && k >= lo && k < hi {
				c.deleted = append(c.deleted, k)
			}
		}
		slices.Sort(c.deleted)
	}
	atMost = c.end - c.i + len(c.deleted)
	c.advance()
	return atMost
}

// advance steps c to the next key, or clears ok past the last one.
//
//cxl0:locked mu
func (c *cursor) advance() {
	v := c.v
	if !c.gated {
		if c.ok = c.i < c.end; c.ok {
			c.key = v.keys[c.i]
			c.i++
		}
		return
	}
	for c.i < c.end && (c.d == len(c.deleted) || v.keys[c.i] < c.deleted[c.d]) {
		c.key = v.keys[c.i]
		c.i++
		if c.slot, c.ok = v.visible(c.key); c.ok {
			return
		}
	}
	if c.ok = c.d < len(c.deleted); c.ok {
		c.key = c.deleted[c.d]
		c.slot = v.shadow[c.key].slot
		c.d++
	}
}

// resolve returns the encoded slot the head is read from. An ungated
// walk looks it up only here, so a head the caller never reads costs no
// lookup.
//
//cxl0:locked mu
func (c *cursor) resolve() int {
	if !c.gated {
		return c.v.index[c.key]
	}
	return c.slot
}

// tip yields every live key with the encoded slot of its newest record,
// in ascending key order and ungated — what compaction folds and
// migration copies, both of which drain the pipeline first.
func (v *view) tip() iter.Seq2[core.Val, int] {
	return func(yield func(core.Val, int) bool) {
		for _, k := range v.keys {
			if !yield(k, v.index[k]) {
				return
			}
		}
	}
}

// set moves key's tip to slot, or drops the key when the record there
// is a tombstone. The ordered key set follows only when the index's size
// says the key entered or left it.
func (v *view) set(key core.Val, slot int, live bool) {
	n := len(v.index)
	if live {
		v.index[key] = slot
	} else {
		delete(v.index, key)
	}
	if len(v.index) == n {
		return
	}
	i, _ := slices.BinarySearch(v.keys, key)
	if live {
		v.keys = slices.Insert(v.keys, i, key)
	} else {
		v.keys = slices.Delete(v.keys, i, i+1)
	}
}

// write is the write step: key's newest record now sits at log slot
// slot (a tombstone when !live). When the write is gated — its batch is
// acknowledged later, at a flight's retirement — the key's acked state
// is recorded before the tip moves past it, so reads keep serving that
// state until the covering commit point.
//
//cxl0:locked mu
func (v *view) write(key core.Val, slot int, live, gated bool) {
	if e, ok := v.shadow[key]; ok {
		e.newest = slot
		v.shadow[key] = e
	} else if gated {
		if v.shadow == nil {
			v.shadow = map[core.Val]shadowEntry{}
		}
		prev, had := v.index[key]
		v.shadow[key] = shadowEntry{exists: had, slot: prev, newest: slot}
	}
	v.set(key, slot, live)
}

// ack is the ack step: the watermark is advancing to limit over key's
// record at slot (a tombstone when !live). A shadow entry whose newest
// record the advance covers dies — reads fall through to the tip — and
// any other catches up to this record. It reports whether key was
// shadowed at all, i.e. whether the state reads of key are served just
// moved.
//
//cxl0:locked mu
func (v *view) ack(key core.Val, slot int, live bool, limit int) bool {
	e, ok := v.shadow[key]
	if !ok {
		return false
	}
	if e.newest < limit {
		delete(v.shadow, key)
	} else {
		e.exists, e.slot = live, slot
		v.shadow[key] = e
	}
	return true
}

// caughtUp drops the shadow: the watermark covers the whole log, or the
// machine holding this volatile state crashed and recovery will rebuild
// from the acked prefix.
//
//cxl0:locked mu
func (v *view) caughtUp() { v.shadow = nil }

// reset re-homes the view onto a committed snapshot: record i of snap
// becomes key snap[i].key's visible state and nothing else is live —
// compaction's reclaim, and the base recovery replays the log onto.
//
//cxl0:locked mu
func (v *view) reset(snap []rec) {
	v.index = make(map[core.Val]int, len(snap))
	v.keys = make([]core.Val, len(snap))
	for i, r := range snap {
		v.index[r.key] = v.logCap + i
		v.keys[i] = r.key
	}
	// A snapshot is written in key order (compaction folds tip()), so
	// this is a check, not a sort, on every path that exists today.
	slices.Sort(v.keys)
	v.shadow = nil
}

// drop removes every tip key matching gone (a bucket that moved away,
// keys the shard no longer owns).
func (v *view) drop(gone func(core.Val) bool) {
	v.keys = slices.DeleteFunc(v.keys, func(k core.Val) bool {
		if !gone(k) {
			return false
		}
		delete(v.index, k)
		return true
	})
}

// replay applies log record r at slot under the move-marker wipe rule:
// a marker for bucket b supersedes every earlier record of b in the log
// — either the bucket moved away (move-out), or it moved (back) in and
// the copies following the marker carry its authoritative state
// (move-in). Without the wipe, a key deleted while its bucket lived
// elsewhere could resurrect from a pre-migration record. only >= 0
// restricts the replay to that bucket's records (the redo re-index);
// -1 replays everything (recovery's full rebuild). Both crash paths must
// agree on these semantics exactly, which is why they share this one
// implementation.
func (v *view) replay(slot int, r rec, bucketOf func(core.Val) int, only int) {
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
