package kv

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv/kvspec"
)

// viewModel drives a bare view — no Store, no memsim — the way the
// commit path does, alongside a kvspec.Shard that says what the view must
// serve: every write appends to the spec's log, and the view takes it at
// once when writes are not gated by the watermark; every ack advances the
// watermark over a prefix, the view taking it record by record. A key
// must be served from the spec's Served slot, or, when the spec serves it
// from its base, from the key's place in the snapshot the view was last
// re-homed to.
type viewModel struct {
	v view
	// cur is the one cursor every range walk reuses, the way a shard's is.
	cur cursor
	s   *kvspec.Shard
	// snap is each key's place in the snapshot the last compaction handed
	// reset.
	snap map[core.Val]int
}

// modelBucket is the model's key-to-bucket map (the store's is a hash).
func modelBucket(k core.Val) int { return int(k % 3) }

func newViewModel(gated bool) *viewModel {
	return &viewModel{v: view{logCap: 1 << 20}, s: kvspec.NewShard(gated)}
}

//cxl0:locked mu
func (m *viewModel) write(key, val core.Val) {
	if !m.s.Gated {
		m.v.take(key, len(m.s.Log), val != 0)
	}
	m.s.Write(key, val)
}

// ack advances the watermark to limit. The take's report is the store's
// cue to snoop its read cache, so it must be true whenever the take
// moved what reads of the key are served. A bucket move's marker is no
// client write: the view dropped its keys when it was written.
//
//cxl0:locked mu
func (m *viewModel) ack(t *testing.T, limit int) {
	t.Helper()
	for slot := m.s.Acked; slot < limit; slot++ {
		r := m.s.Log[slot]
		if r.Gone != nil {
			continue
		}
		beforeSlot, beforeOK := m.v.visible(r.Key)
		moved := m.v.take(r.Key, slot, r.Val != 0)
		afterSlot, afterOK := m.v.visible(r.Key)
		if !moved && (beforeOK != afterOK || (afterOK && beforeSlot != afterSlot)) {
			t.Fatalf("ack of slot %d (key %d) moved its visible state (%d,%v)→(%d,%v) unreported",
				slot, r.Key, beforeSlot, beforeOK, afterSlot, afterOK)
		}
	}
	if err := m.s.Ack(limit); err != nil {
		t.Fatal(err)
	}
}

// served is the encoded slot the spec says a read of k is served from.
func (m *viewModel) served(k core.Val) (int, bool) {
	slot, ok := m.s.Served(k)
	if ok && slot < 0 {
		slot = m.v.logCap + m.snap[k]
	}
	return slot, ok
}

// drain acks every record: the state the bulk steps below start from
// (compaction and migration commit first, and a crash took every write
// still waiting before recovery replays).
//
//cxl0:locked mu
func (m *viewModel) drain(t *testing.T) {
	t.Helper()
	m.ack(t, len(m.s.Log))
}

// crash takes every write still waiting on its ack, the way a shard's
// crash does; the spec then serves the whole log, as a recovery that
// salvages every one of them would.
//
//cxl0:locked mu
func (m *viewModel) crash(t *testing.T) {
	t.Helper()
	log := make([]rec, len(m.s.Log))
	for i, r := range m.s.Log {
		log[i] = rec{key: r.Key, val: r.Val, move: r.Gone != nil}
	}
	m.v.takeRest(log)
	if err := m.s.Recover(len(log)); err != nil {
		t.Fatal(err)
	}
}

// compact re-homes the view onto a snapshot of its visible state, the
// way compaction's reclaim does; reversed hands reset the records in
// descending key order, which no caller does today and reset must
// still index.
//
//cxl0:locked mu
func (m *viewModel) compact(t *testing.T, reversed bool) {
	t.Helper()
	m.drain(t)
	m.s.Compact()
	keys := slices.Sorted(maps.Keys(m.s.Base))
	if reversed {
		slices.Reverse(keys)
	}
	snap := make([]rec, len(keys))
	m.snap = make(map[core.Val]int, len(keys))
	for i, k := range keys {
		snap[i] = rec{key: k, val: 1}
		m.snap[k] = i
	}
	m.v.reset(snap)
}

// dropBucket is the ownership drop of bucket b, which the spec takes as
// the bucket move a migration's marker records.
//
//cxl0:locked mu
func (m *viewModel) dropBucket(t *testing.T, b int) {
	t.Helper()
	m.drain(t)
	gone := func(k core.Val) bool { return modelBucket(k) == b }
	m.v.drop(gone)
	m.s.Move(gone)
	m.drain(t)
}

// replay applies r the way recovery's rebuild does: ungated, under the
// move-marker wipe rule.
//
//cxl0:locked mu
func (m *viewModel) replay(t *testing.T, r rec) {
	t.Helper()
	m.drain(t)
	m.v.replay(len(m.s.Log), r, modelBucket, -1)
	if r.move {
		m.s.Move(func(k core.Val) bool { return modelBucket(k) == int(r.key) })
	} else {
		m.s.Write(r.key, r.val)
	}
	m.drain(t)
}

//cxl0:locked mu
func (m *viewModel) check(t *testing.T, keys core.Val, lo, hi core.Val) {
	t.Helper()
	for k := core.Val(0); k < keys; k++ {
		slot, ok := m.v.visible(k)
		wslot, wok := m.served(k)
		if ok != wok || (ok && slot != wslot) {
			t.Fatalf("visible(%d) = (%d,%v), the spec at %d of %d records says (%d,%v)",
				k, slot, ok, m.s.Acked, len(m.s.Log), wslot, wok)
		}
	}
	// The ordered key set is the index's key set, strictly ascending.
	if len(m.v.keys) != m.v.live() {
		t.Fatalf("keys holds %d keys, the index %d: %v", len(m.v.keys), m.v.live(), m.v.keys)
	}
	for i, k := range m.v.keys {
		if _, ok := m.v.visible(k); !ok {
			t.Fatalf("keys holds %d, which the index does not: %v", k, m.v.keys)
		}
		if i > 0 && m.v.keys[i-1] >= k {
			t.Fatalf("keys not strictly ascending at %d: %v", i, m.v.keys)
		}
	}
	// The cursor, over [lo, hi) and over [lo, MaxInt64) — a range open at
	// the top, as workload E's, whose end seek takes without a search.
	m.checkWalk(t, keys, lo, hi)
	m.checkWalk(t, keys, lo, math.MaxInt64)
}

// checkWalk holds the cursor over [lo, hi) of the key space [0, keys) to
// the spec (walk: strictly ascending): every key it yields visible at the
// slot the spec says, no visible key in range skipped.
//
//cxl0:locked mu
func (m *viewModel) checkWalk(t *testing.T, keys, lo, hi core.Val) {
	t.Helper()
	got := m.walk(t, lo, hi, -1)
	seen := map[core.Val]bool{}
	for _, p := range got {
		if wslot, ok := m.served(p.key); !ok || wslot != p.slot || p.key < lo || p.key >= hi {
			t.Fatalf("cursor over [%d,%d) yielded key %d at slot %d, the spec says (%d,%v)", lo, hi, p.key, p.slot, wslot, ok)
		}
		seen[p.key] = true
	}
	for k := lo; k < min(hi, keys); k++ {
		if _, ok := m.served(k); ok && !seen[k] {
			t.Fatalf("cursor over [%d,%d) skipped visible key %d: %v", lo, hi, k, got)
		}
	}
	// Stopping after n keys leaves the rest untouched: a cursor stopped
	// there saw the same first n, and the next full walk the same keys.
	// A walk stopped after one key resolves its one head only after seek.
	for _, n := range []int{len(got) / 2, min(1, len(got))} {
		if part := m.walk(t, lo, hi, n); !slices.Equal(part, got[:n]) {
			t.Fatalf("cursor over [%d,%d) stopped after %d yielded %v, the full walk %v", lo, hi, n, part, got)
		}
		if again := m.walk(t, lo, hi, -1); !slices.Equal(again, got) {
			t.Fatalf("cursor over [%d,%d) yielded %v after a stopped walk, %v before it", lo, hi, again, got)
		}
	}
}

// keySlot is one step of a cursor.
type keySlot struct {
	key  core.Val
	slot int
}

// walk seeks the model's cursor to [lo, hi) and pulls up to stop keys
// from it (all of them when stop < 0), holding the pulled keys to strictly
// ascending order and the bound seek returned to what the run held.
//
//cxl0:locked mu
func (m *viewModel) walk(t *testing.T, lo, hi core.Val, stop int) []keySlot {
	t.Helper()
	c := &m.cur
	var got []keySlot
	atMost := m.v.seek(c, lo, hi)
	for ; c.ok && len(got) != stop; c.advance() {
		if len(got) > 0 && c.key <= got[len(got)-1].key {
			t.Fatalf("cursor over [%d,%d) yielded key %d after key %d, want strictly ascending", lo, hi, c.key, got[len(got)-1].key)
		}
		got = append(got, keySlot{c.key, c.resolve()})
	}
	if len(got) > atMost {
		t.Fatalf("cursor over [%d,%d) yielded %d keys, seek said at most %d", lo, hi, len(got), atMost)
	}
	return got
}

// TestViewModel holds the view to kvspec over random
// put/delete/ack-prefix sequences, gated and ungated.
//
//cxl0:locked mu
func TestViewModel(t *testing.T) {
	const keys = 12
	for _, gated := range []bool{true, false} {
		for seed := int64(0); seed < 40; seed++ {
			t.Run(fmt.Sprintf("gated=%v/seed=%d", gated, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				m := newViewModel(gated)
				for step := 0; step < 300; step++ {
					switch p := rng.Intn(10); {
					case p < 5:
						m.write(core.Val(rng.Intn(keys)), core.Val(1+rng.Intn(1000)))
					case p < 7:
						m.write(core.Val(rng.Intn(keys)), 0)
					case m.s.Acked < len(m.s.Log):
						m.ack(t, m.s.Acked+1+rng.Intn(len(m.s.Log)-m.s.Acked))
					}
					lo := core.Val(rng.Intn(keys))
					m.check(t, keys, lo, lo+core.Val(rng.Intn(keys)))
				}
				m.drain(t)
				m.check(t, keys, 0, keys)
			})
		}
	}
}

// viewFuzzKeys is the key space of FuzzViewKeys' programs.
const viewFuzzKeys = 12

// runViewProgram interprets prog against a fresh model, checking it after
// every step. Byte 0 says whether writes are gated; every following pair
// (op, arg) is one step — a put, a delete, an ack of a prefix, a crash,
// or one of the bulk steps on a drained view — and the range the check
// scans.
//
//cxl0:locked mu
func runViewProgram(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	m := newViewModel(prog[0]&1 == 1)
	for i := 1; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		key := core.Val(arg % viewFuzzKeys)
		switch op % 10 {
		case 0, 1, 2, 3, 4:
			m.write(key, 1+core.Val(arg))
		case 5, 6:
			m.write(key, 0)
		case 7, 8:
			if m.s.Acked < len(m.s.Log) {
				m.ack(t, m.s.Acked+1+int(arg)%(len(m.s.Log)-m.s.Acked))
			}
		default:
			switch arg % 6 {
			case 0:
				m.compact(t, arg&16 != 0)
			case 1:
				m.dropBucket(t, modelBucket(core.Val(arg>>4)))
			case 2:
				m.replay(t, rec{key: core.Val(arg >> 4 % viewFuzzKeys), val: 1 + core.Val(arg)})
			case 3:
				m.replay(t, rec{key: core.Val(arg >> 4 % viewFuzzKeys)})
			case 4:
				m.replay(t, rec{key: core.Val(modelBucket(core.Val(arg >> 4))), val: 1, move: true})
			case 5:
				m.crash(t)
			}
		}
		lo := core.Val(op>>4) % viewFuzzKeys
		m.check(t, viewFuzzKeys, lo, lo+core.Val(arg>>4))
	}
	m.drain(t)
	m.check(t, viewFuzzKeys, 0, viewFuzzKeys)
}

// FuzzViewKeys holds the view's ordered key set to its index and its
// range walk to kvspec over arbitrary step programs, the bulk
// steps included. The seed corpus is TestViewModel's mix, bulk steps
// added, drawn from the same seeds.
func FuzzViewKeys(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := []byte{byte(seed)}
		for step := 0; step < 300; step++ {
			prog = append(prog, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		f.Add(prog)
	}
	f.Fuzz(runViewProgram)
}

// TestViewWatermarkCases pins the watermark's edge shapes by hand: a key
// deleted past the watermark and then re-put, only overwrites past the
// watermark, a key whose first write is still in flight, and a crash
// with writes in flight.
//
//cxl0:locked mu
func TestViewWatermarkCases(t *testing.T) {
	t.Run("DeletePastWatermarkThenReput", func(t *testing.T) {
		m := newViewModel(true)
		m.write(7, 100) // slot 0
		m.ack(t, 1)
		m.write(7, 0)   // slot 1: deleted past the watermark
		m.write(7, 300) // slot 2: and re-put
		if slot, ok := m.v.visible(7); !ok || slot != 0 {
			t.Fatalf("visible(7) = (%d,%v) with the delete and re-put in flight, want acked slot 0", slot, ok)
		}
		m.check(t, 8, 0, 8)
		m.ack(t, 2) // the delete is acked, the re-put is not
		if _, ok := m.v.visible(7); ok {
			t.Fatal("visible(7) found after its delete was acked and before its re-put was")
		}
		m.check(t, 8, 0, 8)
		m.ack(t, 3)
		if slot, ok := m.v.visible(7); !ok || slot != 2 {
			t.Fatalf("visible(7) = (%d,%v) after the re-put was acked, want slot 2", slot, ok)
		}
		m.check(t, 8, 0, 8)
	})
	t.Run("DeletedPastWatermarkStaysScannable", func(t *testing.T) {
		m := newViewModel(true)
		m.write(3, 100)
		m.ack(t, 1)
		m.write(3, 0) // not taken: the view still serves slot 0
		if got := m.walk(t, 0, 8, -1); !slices.Equal(got, []keySlot{{3, 0}}) {
			t.Fatalf("the cursor yielded %v, want the one key deleted past the watermark at its acked slot 0", got)
		}
	})
	t.Run("DeletedPastWatermarkOnBothSidesOfLo", func(t *testing.T) {
		m := newViewModel(true)
		for _, k := range []core.Val{1, 2, 4, 5, 6, 7} { // slots 0..5
			m.write(k, 100+k)
		}
		m.ack(t, 6)
		m.write(2, 0) // below lo
		m.write(4, 0) // lo itself
		m.write(6, 0) // between two visible keys
		m.write(7, 0) // the last key of the range
		m.write(3, 9) // first write in flight: no visible state
		want := []keySlot{{4, 2}, {5, 3}, {6, 4}, {7, 5}}
		if got := m.walk(t, 4, 8, -1); !slices.Equal(got, want) {
			t.Fatalf("cursor over [4,8) yielded %v, want %v", got, want)
		}
		if got := m.walk(t, 3, 7, -1); !slices.Equal(got, want[:3]) {
			t.Fatalf("cursor over [3,7) yielded %v, want %v", got, want[:3])
		}
		m.check(t, 8, 4, 8)
		m.check(t, 8, 0, 8)
	})
	t.Run("OnlyOverwritesPastWatermark", func(t *testing.T) {
		// Pipeline depth 2 with no key deleted past the watermark: the
		// cursor yields every key at its acked slot.
		m := newViewModel(true)
		for _, k := range []core.Val{1, 3, 5} { // slots 0..2
			m.write(k, 100+k)
		}
		m.ack(t, 3)
		m.write(3, 200) // slot 3
		m.write(5, 300) // slot 4
		if m.v.taken != 3 {
			t.Fatalf("the mark reads %d with two overwrites in flight, want 3 (the watermark)", m.v.taken)
		}
		want := []keySlot{{1, 0}, {3, 1}, {5, 2}}
		if got := m.walk(t, 0, math.MaxInt64, -1); !slices.Equal(got, want) {
			t.Fatalf("cursor over [0,max) yielded %v, want %v", got, want)
		}
		if got := m.walk(t, 2, 5, -1); !slices.Equal(got, want[1:2]) {
			t.Fatalf("cursor over [2,5) yielded %v, want %v", got, want[1:2])
		}
		m.check(t, 8, 0, 8)
		m.check(t, 8, 3, 5)
		m.ack(t, 5) // both overwrites acked: the mark follows the watermark
		if m.v.taken != 5 {
			t.Fatalf("the mark reads %d after the watermark passed slot 4, want 5", m.v.taken)
		}
		want = []keySlot{{1, 0}, {3, 3}, {5, 4}}
		if got := m.walk(t, 0, math.MaxInt64, -1); !slices.Equal(got, want) {
			t.Fatalf("cursor over [0,max) yielded %v after the acks, want %v", got, want)
		}
		m.check(t, 8, 0, 8)
	})
	t.Run("FirstWriteInFlight", func(t *testing.T) {
		m := newViewModel(true)
		m.write(5, 100)
		if _, ok := m.v.visible(5); ok {
			t.Fatal("visible(5) found while the key's first write is in flight")
		}
		if got := m.walk(t, 0, 8, -1); len(got) != 0 {
			t.Fatalf("the cursor yielded %v: a key whose first write is in flight", got)
		}
		m.write(5, 200) // a second write, same flight window
		m.check(t, 8, 0, 8)
		m.ack(t, 1)
		if slot, ok := m.v.visible(5); !ok || slot != 0 {
			t.Fatalf("visible(5) = (%d,%v) after the first write was acked, want slot 0", slot, ok)
		}
		m.ack(t, 2)
		m.check(t, 8, 0, 8)
	})
	t.Run("CrashTakesWaitingWrites", func(t *testing.T) {
		m := newViewModel(true)
		m.write(2, 100) // slot 0
		m.ack(t, 1)
		m.write(2, 0)   // slot 1: a delete in flight
		m.write(5, 200) // slot 2: a first write in flight
		m.crash(t)
		if _, ok := m.v.visible(2); ok {
			t.Fatal("visible(2) found after a crash took its delete")
		}
		if slot, ok := m.v.visible(5); !ok || slot != 2 || m.v.taken != 3 {
			t.Fatalf("visible(5) = (%d,%v) with the mark at %d after a crash, want slot 2 and mark 3", slot, ok, m.v.taken)
		}
		m.check(t, 8, 0, 8)
	})
}

// TestViewBulkSteps covers the steps compaction, recovery and bucket
// migration take: re-homing onto a snapshot (and the slot encoding that
// tells its records from log records), the move-marker wipe rule, and
// the ownership drop.
//
//cxl0:locked mu
func TestViewBulkSteps(t *testing.T) {
	v := view{logCap: 64}
	v.take(1, 0, true)
	v.reset([]rec{{key: 10, val: 1}, {key: 11, val: 1}, {key: 20, val: 1}})
	if _, ok := v.visible(1); ok || v.taken != 0 {
		t.Fatalf("reset kept a key outside the snapshot or a log slot (mark %d)", v.taken)
	}
	for i, k := range []core.Val{10, 11, 20} {
		slot, ok := v.visible(k)
		if j, inSnap := v.decode(slot); !ok || !inSnap || j != i {
			t.Fatalf("visible(%d) = (%d,%v) decoding to (%d,%v), want snapshot slot %d", k, slot, ok, j, inSnap, i)
		}
	}
	if i, inSnap := v.decode(5); inSnap || i != 5 {
		t.Fatalf("decode(5) = (%d,%v), want log slot 5", i, inSnap)
	}

	// Buckets by tens. The log: an overwrite of 10, a delete of 11, a
	// marker for bucket 1 (keys 10..19), then a post-marker copy of 12.
	bucketOf := func(k core.Val) int { return int(k / 10) }
	log := []rec{{key: 10, val: 2}, {key: 11, val: 0}, {key: 1, val: 9, move: true}, {key: 12, val: 3}, {key: 20, val: 4}}
	for slot, r := range log {
		v.replay(slot, r, bucketOf, -1)
	}
	if v.live() != 2 || v.taken != len(log) {
		t.Fatalf("replay left %d live keys and the mark at %d, want 12 and 20 and %d", v.live(), v.taken, len(log))
	}
	if slot, ok := v.visible(12); !ok || slot != 3 {
		t.Fatalf("visible(12) = (%d,%v), want the post-marker copy at slot 3", slot, ok)
	}
	if _, ok := v.visible(10); ok {
		t.Fatal("the marker did not wipe its bucket's earlier records")
	}
	if slot, ok := v.visible(20); !ok || slot != 4 {
		t.Fatalf("visible(20) = (%d,%v), want log slot 4", slot, ok)
	}

	// A restricted replay touches only its bucket, and not the mark.
	v.reset([]rec{{key: 20, val: 1}})
	for slot, r := range log {
		v.replay(slot, r, bucketOf, 1)
	}
	if v.taken != 0 {
		t.Fatalf("a bucket-1 replay moved the mark to %d", v.taken)
	}
	if slot, ok := v.visible(20); !ok || slot != v.logCap {
		t.Fatalf("bucket-1 replay moved key 20 to (%d,%v)", slot, ok)
	}
	if slot, ok := v.visible(12); !ok || slot != 3 {
		t.Fatalf("bucket-1 replay left 12 at (%d,%v), want slot 3", slot, ok)
	}

	v.drop(func(k core.Val) bool { return bucketOf(k) == 2 })
	if _, ok := v.visible(20); ok || v.live() != 1 {
		t.Fatalf("drop left key 20 (live = %d)", v.live())
	}
	n := 0
	for k, slot := range v.all() {
		if k != 12 || slot != 3 {
			t.Fatalf("all yielded (%d,%d), want (12,3)", k, slot)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("all yielded %d keys, want 1", n)
	}
}
