package kv

// A shard's read-visible state. Which record a read of key k is served
// is decided by two volatile maps — the tip index over everything
// appended, and the shadow of keys whose newest record sits past the
// acked-watermark (docs/pipeline.md) — and by one slot encoding that says
// whether a record lives in the log or in the committed snapshot. All
// three live in this file and are touched nowhere else (TestSeams): the
// store drives the view through the per-key write and ack steps (and
// snoops its read cache when they say a key moved, see Store.keyMoved)
// and through the bulk steps compaction, recovery and bucket migration
// need. No method here takes or reaches a *Store: the view knows keys,
// slots and the watermark, not routing, caches or clocks.

import (
	"iter"

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

// visible resolves key to the encoded slot a read is served from — the
// watermark gate: a key overwritten past the acked-watermark resolves to
// its shadow (last acked) state, so a read never observes a value a
// crash could still take back.
//
//cxl0:locked mu
func (v *view) visible(key core.Val) (slot int, ok bool) {
	if e, shadowed := v.shadow[key]; shadowed {
		return e.slot, e.exists
	}
	slot, ok = v.index[key]
	return slot, ok
}

// inRange yields every key in [lo, hi) with a visible state and its
// encoded slot, in no particular order: tip keys through the watermark
// gate (a key whose first write is still in flight has no visible state
// and is skipped), then keys deleted past the watermark, which left the
// index but whose acked state the shadow still carries.
//
//cxl0:locked mu
func (v *view) inRange(lo, hi core.Val) iter.Seq2[core.Val, int] {
	return func(yield func(core.Val, int) bool) {
		for k, slot := range v.index { //cxl0:order-insensitive — callers sort what they collect
			if k < lo || k >= hi {
				continue
			}
			if e, shadowed := v.shadow[k]; shadowed {
				if !e.exists {
					continue
				}
				slot = e.slot
			}
			if !yield(k, slot) {
				return
			}
		}
		for k, e := range v.shadow { //cxl0:order-insensitive — as above
			if _, tip := v.index[k]; tip || k < lo || k >= hi || !e.exists {
				continue
			}
			if !yield(k, e.slot) {
				return
			}
		}
	}
}

// tip yields every live key with the encoded slot of its newest record,
// ungated — what compaction folds and migration copies, both of which
// drain the pipeline first.
func (v *view) tip() iter.Seq2[core.Val, int] {
	return func(yield func(core.Val, int) bool) {
		for k, slot := range v.index { //cxl0:order-insensitive — callers sort or count what they collect
			if !yield(k, slot) {
				return
			}
		}
	}
}

// set moves key's tip to slot, or drops the key when the record there
// is a tombstone.
func (v *view) set(key core.Val, slot int, live bool) {
	if live {
		v.index[key] = slot
	} else {
		delete(v.index, key)
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
	for i, r := range snap {
		v.index[r.key] = v.logCap + i
	}
	v.shadow = nil
}

// drop removes every tip key matching gone (a bucket that moved away,
// keys the shard no longer owns).
func (v *view) drop(gone func(core.Val) bool) {
	for k := range v.index { //cxl0:order-insensitive — uniform delete, order-free
		if gone(k) {
			delete(v.index, k)
		}
	}
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
