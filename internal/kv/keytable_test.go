package kv

import (
	"math"
	"math/rand"
	"testing"

	"cxl0/internal/core"
)

// keyTableKeys is the key pool of FuzzKeyTable's programs: the ends of
// the key space, a few small keys, and two runs of keys built to share a
// home slot at every table size — slot 0, and the last slot, whose run
// wraps past the end of the slice into slot 0's.
var keyTableKeys = func() []core.Val {
	keys := []core.Val{0, 1, 2, 3, 7, 100, math.MaxInt64 - 1, math.MaxInt64}
	// inv is fibonacci's inverse mod 2^64 (Newton's iteration), so a
	// stored key inv*h hashes to h: its high bits, the home, are h's.
	inv := uint64(fibonacci)
	for range 5 {
		inv *= 2 - fibonacci*inv
	}
	for _, top := range []uint64{0, math.MaxUint64} {
		found := 0
		for j := uint64(0); found < 8; j++ {
			h := j
			if top != 0 {
				h = top - j
			}
			// A stored key is key+1, and keys are >= 0.
			if stored := h * inv; stored >= 1 && stored <= 1<<63 {
				keys = append(keys, core.Val(stored-1))
				found++
			}
		}
	}
	return keys
}()

// keyTableFresh is the first of the dense keys a program's growth steps
// add, past the pool.
const keyTableFresh = 1 << 20

// runKeyTableProgram interprets prog against a keyTable and a map model.
// Every pair (op, arg) is one step on a key of the pool — a set, a del, a
// clear, a reset, or the read cache's fill — or a set of the next fresh
// key, which forces growth; after each step len and every key the
// program could have stored are probed on both. A fill is one probe
// (slot) and an insertAt at the slot it found, after the eviction of the
// next key of the pool when that one is stored: the fill of a full cache,
// whose eviction's backward shift may empty a slot on the filled key's
// probe run (afterDel).
func runKeyTableProgram(t *testing.T, prog []byte) {
	var tab keyTable
	model := map[core.Val]core.Val{}
	fresh := core.Val(keyTableFresh)
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		key := keyTableKeys[int(arg)%len(keyTableKeys)]
		val := 1 + core.Val(arg)<<40 + core.Val(i)
		switch op % 16 {
		case 0, 1, 2, 3, 4:
			tab.set(key, val)
			model[key] = val
		case 5, 6, 7, 8:
			tab.del(key)
			delete(model, key)
		case 9, 10, 11:
			tab.set(fresh, val)
			model[fresh] = val
			fresh++
		case 12, 15:
			i, ok := tab.slot(key)
			if ok {
				break
			}
			if evict := keyTableKeys[(int(arg)+1)%len(keyTableKeys)]; op%16 == 15 {
				i = tab.afterDel(key, i, tab.del(evict))
				delete(model, evict)
			}
			tab.insertAt(i, key, val)
			model[key] = val
		case 13:
			tab.clear()
			clear(model)
		case 14:
			tab.reset(int(arg))
			clear(model)
		}
		checkKeyTable(t, i/2, &tab, model, fresh)
	}
}

// checkKeyTable holds tab to model: len, and a probe of every pool key
// and every fresh key below fresh.
func checkKeyTable(t *testing.T, step int, tab *keyTable, model map[core.Val]core.Val, fresh core.Val) {
	t.Helper()
	if tab.len() != len(model) {
		t.Fatalf("step %d: len %d, the model holds %d keys", step, tab.len(), len(model))
	}
	if n := len(tab.slots); n > 0 && 4*tab.len() > 3*n {
		t.Fatalf("step %d: %d keys in %d slots, past 3/4 load", step, tab.len(), n)
	}
	probe := func(k core.Val) {
		got, ok := tab.get(k)
		want, wok := model[k]
		if ok != wok || got != want {
			t.Fatalf("step %d: get(%d) = (%d, %v), the model holds (%d, %v)", step, k, got, ok, want, wok)
		}
	}
	for _, k := range keyTableKeys {
		probe(k)
	}
	for k := core.Val(keyTableFresh); k < fresh; k++ {
		probe(k)
	}
}

// TestKeyTableCollidingKeys checks the pool's construction: each run's
// keys share one home slot at a small and a large table size.
func TestKeyTableCollidingKeys(t *testing.T) {
	for _, size := range []int{minKeySlots, 1 << 16} {
		var tab keyTable
		tab.alloc(size)
		for run, want := range []int{0, size - 1} {
			for _, k := range keyTableKeys[8+8*run : 16+8*run] {
				if h := tab.home(k + 1); h != want {
					t.Fatalf("%d slots: key %d of run %d has home %d, want %d", size, k, run, h, want)
				}
			}
		}
	}
}

// FuzzKeyTable holds the key table to a Go map over arbitrary step
// programs: sets, deletes, clears and resets on a pool of keys that
// collide at every size, and growth past every size a program reaches.
// The seed corpus (beside testdata/fuzz/FuzzKeyTable) is random programs
// and one that fills both colliding runs and deletes them back to front
// and front to back.
func FuzzKeyTable(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 0, 400)
		for range 200 {
			prog = append(prog, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		f.Add(prog)
	}
	var runs []byte
	for _, order := range [][2]int{{8, 24}, {23, 7}} {
		for k := 8; k < 24; k++ {
			runs = append(runs, 0, byte(k))
		}
		for k := order[0]; k != order[1]; k += (order[1] - order[0]) / 16 {
			runs = append(runs, 5, byte(k))
		}
	}
	f.Add(runs)
	f.Fuzz(runKeyTableProgram)
}

// TestKeyTableDoesNotAllocate: at steady state a get, an overwrite, a
// delete and a fill's probe and insert, the insert after an eviction,
// allocate nothing, and neither does a reset to a size the slots hold.
func TestKeyTableDoesNotAllocate(t *testing.T) {
	tab := newKeyTable(1024)
	slots := len(tab.slots)
	for k := core.Val(0); k < 1024; k++ {
		tab.set(k, k+1)
	}
	k := core.Val(0)
	step := func() {
		if v, ok := tab.get(k); !ok || v != k+1 {
			t.Fatalf("get(%d) = (%d, %v)", k, v, ok)
		}
		tab.set(k, k+1)
		i, ok := tab.slot(k + 1024)
		if ok {
			t.Fatalf("slot(%d) finds a key never stored", k+1024)
		}
		tab.insertAt(tab.afterDel(k+1024, i, tab.del(k)), k+1024, k+1025)
		k++
	}
	if allocs := testing.AllocsPerRun(4096, step); allocs != 0 {
		t.Errorf("get, set and del allocate %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { tab.reset(1024) }); allocs != 0 {
		t.Errorf("a reset the slots hold allocates %v times", allocs)
	}
	if len(tab.slots) != slots || tab.len() != 0 {
		t.Fatalf("after the steps and a reset the table has %d slots (was %d) and %d keys", len(tab.slots), slots, tab.len())
	}
}
