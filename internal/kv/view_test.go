package kv

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cxl0/internal/core"
)

// viewModel drives a bare view — no Store, no memsim — the way the
// commit path does: every write appends to a log, and the view takes it
// at once when writes are not gated by the watermark; every ack advances
// the watermark over a prefix, the view taking it record by record. What
// the view must serve is then a plain replay: of records [0, acked) when
// writes are gated, of the whole log when they are not — onto the
// snapshot the view was last re-homed to, a move marker wiping its
// bucket.
type viewModel struct {
	v view
	// cur is the one cursor every range walk reuses, the way a shard's is.
	cur   cursor
	snap  []rec
	log   []rec
	acked int
	gated bool
}

// modelBucket is the model's key-to-bucket map (the store's is a hash).
func modelBucket(k core.Val) int { return int(k % 3) }

func newViewModel(gated bool) *viewModel {
	return &viewModel{v: view{logCap: 1 << 20, index: map[core.Val]int{}}, gated: gated}
}

//cxl0:locked mu
func (m *viewModel) write(key, val core.Val) {
	if !m.gated {
		m.v.take(key, len(m.log), val != 0)
	}
	m.log = append(m.log, rec{key: key, val: val})
}

// ack advances the watermark to limit. The take's report is the store's
// cue to snoop its read cache, so it must be true whenever the take
// moved what reads of the key are served.
//
//cxl0:locked mu
func (m *viewModel) ack(t *testing.T, limit int) {
	t.Helper()
	for slot := m.acked; slot < limit; slot++ {
		r := m.log[slot]
		beforeSlot, beforeOK := m.v.visible(r.key)
		moved := m.v.take(r.key, slot, r.val != 0)
		afterSlot, afterOK := m.v.visible(r.key)
		if !moved && (beforeOK != afterOK || (afterOK && beforeSlot != afterSlot)) {
			t.Fatalf("ack of slot %d (key %d) moved its visible state (%d,%v)→(%d,%v) unreported",
				slot, r.key, beforeSlot, beforeOK, afterSlot, afterOK)
		}
	}
	m.acked = limit
}

// want replays the records the view is obliged to serve.
func (m *viewModel) want() map[core.Val]int {
	upto := len(m.log)
	if m.gated {
		upto = m.acked
	}
	want := map[core.Val]int{}
	for i, r := range m.snap {
		want[r.key] = m.v.logCap + i
	}
	for slot, r := range m.log[:upto] {
		switch {
		case r.move:
			for k := range want { //cxl0:order-insensitive — uniform delete, order-free
				if modelBucket(k) == int(r.key) {
					delete(want, k)
				}
			}
		case r.val == 0:
			delete(want, r.key)
		default:
			want[r.key] = slot
		}
	}
	return want
}

// drain acks every record: the state the bulk steps below start from
// (compaction and migration commit first, and a crash took every write
// still waiting before recovery replays).
//
//cxl0:locked mu
func (m *viewModel) drain(t *testing.T) {
	t.Helper()
	m.ack(t, len(m.log))
}

// crash takes every write still waiting on its ack, the way a shard's
// crash does; the model then serves the whole log, as a recovery that
// salvages every one of them would.
//
//cxl0:locked mu
func (m *viewModel) crash() {
	m.v.takeRest(m.log)
	m.acked = len(m.log)
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
	want := m.want()
	snap := make([]rec, 0, len(want))
	for _, k := range slices.Sorted(maps.Keys(want)) {
		snap = append(snap, rec{key: k, val: 1})
	}
	if reversed {
		slices.Reverse(snap)
	}
	m.v.reset(snap)
	m.snap, m.log, m.acked = snap, nil, 0
}

// dropBucket is the ownership drop of bucket b; the model logs it as the
// move marker a migration would have written.
//
//cxl0:locked mu
func (m *viewModel) dropBucket(t *testing.T, b int) {
	t.Helper()
	m.drain(t)
	m.v.drop(func(k core.Val) bool { return modelBucket(k) == b })
	m.log = append(m.log, rec{key: core.Val(b), move: true})
	m.acked = len(m.log)
}

// replay applies r the way recovery's rebuild does: ungated, under the
// move-marker wipe rule.
//
//cxl0:locked mu
func (m *viewModel) replay(t *testing.T, r rec) {
	t.Helper()
	m.drain(t)
	m.v.replay(len(m.log), r, modelBucket, -1)
	m.log = append(m.log, r)
	m.acked = len(m.log)
}

//cxl0:locked mu
func (m *viewModel) check(t *testing.T, keys core.Val, lo, hi core.Val) {
	t.Helper()
	want := m.want()
	for k := core.Val(0); k < keys; k++ {
		slot, ok := m.v.visible(k)
		wslot, wok := want[k]
		if ok != wok || (ok && slot != wslot) {
			t.Fatalf("visible(%d) = (%d,%v), replay of [0,%d) of %d records says (%d,%v)",
				k, slot, ok, m.acked, len(m.log), wslot, wok)
		}
	}
	// The ordered key set is the index's key set, strictly ascending.
	if len(m.v.keys) != len(m.v.index) {
		t.Fatalf("keys holds %d keys, the index %d: %v vs %v", len(m.v.keys), len(m.v.index), m.v.keys, m.v.index)
	}
	for i, k := range m.v.keys {
		if _, ok := m.v.index[k]; !ok {
			t.Fatalf("keys holds %d, which the index does not: %v vs %v", k, m.v.keys, m.v.index)
		}
		if i > 0 && m.v.keys[i-1] >= k {
			t.Fatalf("keys not strictly ascending at %d: %v", i, m.v.keys)
		}
	}
	// The cursor, over [lo, hi) and over [lo, MaxInt64) — a range open at
	// the top, as workload E's, whose end seek takes without a search.
	m.checkWalk(t, want, lo, hi)
	m.checkWalk(t, want, lo, math.MaxInt64)
}

// checkWalk holds the cursor over [lo, hi) to want (walk: strictly
// ascending): every key it yields visible at the slot the model says, no
// visible key in range skipped.
//
//cxl0:locked mu
func (m *viewModel) checkWalk(t *testing.T, want map[core.Val]int, lo, hi core.Val) {
	t.Helper()
	got := m.walk(t, lo, hi, -1)
	seen := map[core.Val]bool{}
	for _, p := range got {
		if wslot, ok := want[p.key]; !ok || wslot != p.slot || p.key < lo || p.key >= hi {
			t.Fatalf("cursor over [%d,%d) yielded key %d at slot %d, the model says (%d,%v)", lo, hi, p.key, p.slot, wslot, ok)
		}
		seen[p.key] = true
	}
	for k := range want { //cxl0:order-insensitive — set comparison
		if k >= lo && k < hi && !seen[k] {
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

// TestViewModel holds the view to the replay model over random
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
					case m.acked < len(m.log):
						m.ack(t, m.acked+1+rng.Intn(len(m.log)-m.acked))
					}
					lo := core.Val(rng.Intn(keys))
					m.check(t, keys, lo, lo+core.Val(rng.Intn(keys)))
				}
				m.ack(t, len(m.log))
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
			if m.acked < len(m.log) {
				m.ack(t, m.acked+1+int(arg)%(len(m.log)-m.acked))
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
				m.crash()
			}
		}
		lo := core.Val(op>>4) % viewFuzzKeys
		m.check(t, viewFuzzKeys, lo, lo+core.Val(arg>>4))
	}
	m.ack(t, len(m.log))
	m.check(t, viewFuzzKeys, 0, viewFuzzKeys)
}

// FuzzViewKeys holds the view's ordered key set to its index and its
// range walk to the replay model over arbitrary step programs, the bulk
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
		m.crash()
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
	v := view{logCap: 64, index: map[core.Val]int{}}
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
