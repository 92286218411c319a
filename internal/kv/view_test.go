package kv

import (
	"fmt"
	"math/rand"
	"testing"

	"cxl0/internal/core"
)

// viewModel drives a bare view — no Store, no memsim — the way the
// commit path does: every write appends to a log and takes the view's
// write step, every ack advances the watermark over a prefix and takes
// the ack step record by record. What the view must serve is then a
// plain replay: of records [0, acked) when writes are gated by the
// watermark, of the whole log when they are not.
type viewModel struct {
	v     view
	log   []rec
	acked int
	gated bool
}

func newViewModel(gated bool) *viewModel {
	return &viewModel{v: view{logCap: 1 << 20, index: map[core.Val]int{}}, gated: gated}
}

//cxl0:locked mu
func (m *viewModel) write(key, val core.Val) {
	m.v.write(key, len(m.log), val != 0, m.gated)
	m.log = append(m.log, rec{key: key, val: val})
}

// ack advances the watermark to limit. The ack step's report is the
// store's cue to snoop its read cache, so it must be true whenever the
// step moved what reads of the key are served.
//
//cxl0:locked mu
func (m *viewModel) ack(t *testing.T, limit int) {
	t.Helper()
	for slot := m.acked; slot < limit; slot++ {
		r := m.log[slot]
		beforeSlot, beforeOK := m.v.visible(r.key)
		moved := m.v.ack(r.key, slot, r.val != 0, limit)
		afterSlot, afterOK := m.v.visible(r.key)
		if !moved && (beforeOK != afterOK || (afterOK && beforeSlot != afterSlot)) {
			t.Fatalf("ack of slot %d (key %d) moved its visible state (%d,%v)→(%d,%v) unreported",
				slot, r.key, beforeSlot, beforeOK, afterSlot, afterOK)
		}
	}
	m.acked = limit
	if m.acked == len(m.log) && limit%2 == 0 {
		// An in-place commit reaching the tip drops the shadow wholesale;
		// a flight retiring there does not. Both must read the same.
		m.v.caughtUp()
	}
}

// want replays the records the view is obliged to serve.
func (m *viewModel) want() map[core.Val]int {
	upto := len(m.log)
	if m.gated {
		upto = m.acked
	}
	want := map[core.Val]int{}
	for slot, r := range m.log[:upto] {
		if r.val == 0 {
			delete(want, r.key)
		} else {
			want[r.key] = slot
		}
	}
	return want
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
	got := map[core.Val]int{}
	for k, slot := range m.v.inRange(lo, hi) {
		if _, dup := got[k]; dup {
			t.Fatalf("inRange(%d,%d) yielded key %d twice", lo, hi, k)
		}
		got[k] = slot
	}
	for k, wslot := range want { //cxl0:order-insensitive — set comparison
		if k < lo || k >= hi {
			continue
		}
		if slot, ok := got[k]; !ok || slot != wslot {
			t.Fatalf("inRange(%d,%d) has key %d at (%d,%v), want slot %d", lo, hi, k, slot, ok, wslot)
		}
		delete(got, k)
	}
	if len(got) != 0 {
		t.Fatalf("inRange(%d,%d) yielded keys with no visible state in range: %v", lo, hi, got)
	}
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

// TestViewWatermarkCases pins the gate's two edge shapes by hand: a key
// deleted past the watermark and then re-put, and a key whose first
// write is still in flight.
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
		m.write(3, 0) // left the tip index; the shadow still carries slot 0
		n := 0
		for k, slot := range m.v.inRange(0, 8) {
			if k != 3 || slot != 0 {
				t.Fatalf("inRange yielded (%d,%d), want key 3 at acked slot 0", k, slot)
			}
			n++
		}
		if n != 1 {
			t.Fatalf("inRange yielded %d keys, want the one deleted past the watermark", n)
		}
	})
	t.Run("FirstWriteInFlight", func(t *testing.T) {
		m := newViewModel(true)
		m.write(5, 100)
		if _, ok := m.v.visible(5); ok {
			t.Fatal("visible(5) found while the key's first write is in flight")
		}
		for k := range m.v.inRange(0, 8) {
			t.Fatalf("inRange yielded key %d whose first write is in flight", k)
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
}

// TestViewBulkSteps covers the steps compaction, recovery and bucket
// migration take: re-homing onto a snapshot (and the slot encoding that
// tells its records from log records), the move-marker wipe rule, and
// the ownership drop.
//
//cxl0:locked mu
func TestViewBulkSteps(t *testing.T) {
	v := view{logCap: 64, index: map[core.Val]int{}}
	v.write(1, 0, true, true)
	v.reset([]rec{{key: 10, val: 1}, {key: 11, val: 1}, {key: 20, val: 1}})
	if _, ok := v.visible(1); ok {
		t.Fatal("reset kept a key outside the snapshot")
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
	if v.live() != 2 {
		t.Fatalf("replay left %d live keys, want 12 and 20", v.live())
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

	// A restricted replay touches only its bucket.
	v.reset([]rec{{key: 20, val: 1}})
	for slot, r := range log {
		v.replay(slot, r, bucketOf, 1)
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
	for k, slot := range v.tip() {
		if k != 12 || slot != 3 {
			t.Fatalf("tip yielded (%d,%d), want (12,3)", k, slot)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("tip yielded %d keys, want 1", n)
	}
}
