package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fuzzTopo is three machines with interleaved owners, one of them
// volatile, over enough locations that every machine's index spans more
// than one block of words and ends in a partial word.
func fuzzTopo() *Topology {
	topo := NewTopology()
	a := topo.AddMachine("a", NonVolatile)
	b := topo.AddMachine("b", Volatile)
	c := topo.AddMachine("c", NonVolatile)
	topo.AddLocs(a, 70)
	topo.AddLoc("x", b)
	topo.AddLocs(b, 64*blockWords)
	topo.AddLocs(c, 61)
	topo.AddLocs(a, 3)
	return topo
}

// FuzzTauIndex reads its input as a sequence of four-byte operations —
// kind, machine, two bytes of location — applied in place to one state
// (and now and then to a clone that replaces it) and replayed into a dense
// mirror, and holds the state to the mirror after every one, and its key
// and equality to the mirror's at the end. The seed corpus is
// testdata/fuzz/FuzzTauIndex.
func FuzzTauIndex(f *testing.F) {
	topo := fuzzTopo()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, d := NewState(topo), newDense(topo)
		apply := func(l Label, v Variant) {
			if got, want := ApplyInPlace(s, l, v), d.apply(l, v); got != want {
				t.Fatalf("%v enabled: %v, in the mirror: %v", l, got, want)
			}
		}
		for ; len(data) >= 4; data = data[4:] {
			m := MachineID(int(data[1]) % topo.NumMachines())
			x := LocID((int(data[2])<<8 | int(data[3])) % topo.NumLocs())
			v := Val(data[1] % 3)
			switch data[0] % 12 {
			case 0:
				apply(LStoreL(m, x, v), Base)
			case 1:
				apply(RStoreL(m, x, v), Base)
			case 2:
				apply(MStoreL(m, x, v), Base)
			case 3:
				apply(LoadL(m, x, s.Readable(x)), Base)
			case 4:
				apply(RFlushL(m, x), LWB)
			case 5:
				apply(RMWL(OpRRMW, m, x, s.Readable(x), v), Base)
			case 6:
				if n := s.TauStepCount(); n > 0 {
					ts := s.TauStepAt(int(x) % n)
					cloned := ApplyTau(s, ts)
					ApplyTauInPlace(s, ts)
					d.tau(ts)
					if err := agrees(cloned, d); err != nil {
						t.Fatalf("ApplyTau(%v): %v", ts, err)
					}
				}
			case 7:
				apply(CrashL(m), Base)
			case 8:
				cloned := Crash(s, m, PSN)
				apply(CrashL(m), PSN)
				if err := agrees(cloned, d); err != nil {
					t.Fatalf("Crash(%d, PSN): %v", m, err)
				}
			case 9:
				s = s.Clone()
			case 10:
				if cv, held := s.CachedValue(x); held {
					v = cv // keep the global invariant
				}
				s.SetCache(m, x, v)
				d.cache[m][x] = v
			case 11:
				s.SetCache(m, x, Bot)
				d.cache[m][x] = Bot
			}
			if err := agrees(s, d); err != nil {
				t.Fatalf("op %v: %v", data[:4], err)
			}
		}
		if err := sameState(s, d); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTopologyRuns registers locations one at a time and in ranges,
// interleaved over three machines, beside a table with one entry per
// location, and holds Owner, LocName, LocByName and OwnerRuns to the table.
// Neighbouring registrations to one machine must share a run.
func TestTopologyRuns(t *testing.T) {
	topo := NewTopology()
	ms := []MachineID{topo.AddMachine("a", NonVolatile), topo.AddMachine("b", Volatile), topo.AddMachine("c", NonVolatile)}
	var owner []MachineID
	var name []string
	rng := rand.New(rand.NewSource(21))
	for reg, changes := 0, 0; reg < 60; reg++ {
		m, first := ms[rng.Intn(len(ms))], LocID(len(owner))
		n := rng.Intn(200) // now and then none at all
		if named := rng.Intn(3) == 0; named {
			n = 1
			name = append(name, fmt.Sprintf("n%d", reg))
			if got := topo.AddLoc(name[first], m); got != first {
				t.Fatalf("AddLoc returned %d, want %d", got, first)
			}
		} else {
			for l := int(first); l < int(first)+n; l++ {
				name = append(name, fmt.Sprintf("%s[%d]", topo.MachineName(m), l))
			}
			if got := topo.AddLocs(m, n); got != first {
				t.Fatalf("AddLocs returned %d, want %d", got, first)
			}
		}
		if n > 0 && (first == 0 || owner[first-1] != m) {
			changes++
		}
		owner = append(owner, slices.Repeat([]MachineID{m}, n)...)
		if len(topo.runs) != changes {
			t.Fatalf("after %d registrations: %d runs for %d changes of owner", reg+1, len(topo.runs), changes)
		}
	}
	if topo.NumLocs() != len(owner) {
		t.Fatalf("NumLocs = %d, %d registered", topo.NumLocs(), len(owner))
	}
	for l, want := range owner {
		if got := topo.Owner(LocID(l)); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", l, got, want)
		}
		if got := topo.LocName(LocID(l)); got != name[l] {
			t.Fatalf("LocName(%d) = %q, want %q", l, got, name[l])
		}
		if got, ok := topo.LocByName(name[l]); !ok || got != LocID(l) {
			t.Fatalf("LocByName(%q) = %d, %v, want %d", name[l], got, ok, l)
		}
	}
	for trial := 0; trial < 200; trial++ {
		from := LocID(rng.Intn(len(owner) + 1))
		to := from + LocID(rng.Intn(len(owner)+1-int(from)))
		at := from
		topo.OwnerRuns(from, to, func(m MachineID, lo, hi LocID) {
			if lo != at || hi <= lo || hi > to {
				t.Fatalf("OwnerRuns(%d, %d): run [%d,%d) after %d", from, to, lo, hi, at)
			}
			for l := lo; l < hi; l++ {
				if owner[l] != m {
					t.Fatalf("OwnerRuns(%d, %d): run [%d,%d) of %d holds %d, owned by %d", from, to, lo, hi, m, l, owner[l])
				}
			}
			if hi < to && owner[hi] == m {
				t.Fatalf("OwnerRuns(%d, %d): run [%d,%d) of %d stops short of %d", from, to, lo, hi, m, hi)
			}
			at = hi
		})
		if at != to {
			t.Fatalf("OwnerRuns(%d, %d) stopped at %d", from, to, at)
		}
	}
}

// TestLineSetMatchesMapModel drives a LineSet and a map through the same
// random insertions, removals, range removals and clears, and holds
// membership, the count and the ascending order to the map.
func TestLineSetMatchesMapModel(t *testing.T) {
	const locs = 64*blockWords + 700 // two blocks, the second partial, the last word too
	set, model := NewLineSet(locs), map[LocID]bool{}
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 4000; round++ {
		l := LocID(rng.Intn(locs))
		switch k := rng.Intn(40); {
		case k < 24:
			set.Add(l)
			model[l] = true
		case k < 36:
			set.Remove(l)
			delete(model, l)
		case k < 39:
			hi := l + LocID(rng.Intn(300))%(locs-l+1)
			set.RemoveRange(l, hi)
			for x := l; x < hi; x++ {
				delete(model, x)
			}
		default:
			set.Clear()
			clear(model)
		}
		if set.Has(l) != model[l] || set.total != len(model) {
			t.Fatalf("round %d: Has(%d) = %v, %d lines; the model has %v, %d", round, l, set.Has(l), set.total, model[l], len(model))
		}
		if round%50 != 0 {
			continue
		}
		want := slices.Sorted(maps.Keys(model))
		var got []LocID
		set.each(func(l LocID) { got = append(got, l) })
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: each yields %v, the model holds %v", round, got, want)
		}
		for k, l := range want {
			if n := set.nth(uint64(k)); n != l {
				t.Fatalf("round %d: nth(%d) = %d, want %d", round, k, n, l)
			}
		}
	}
}

// TestDrainTauMatchesStepLoop holds DrainTau to the drain it replaced —
// take TauStepAt(0) until TauStepCount() is 0 — on random states of
// fuzzTopo: lines cached by their owners and by other machines on either
// side of them, so some propagate to a lower-numbered owner and are
// taken on a later walk. Both drains must end in one state with nothing
// cached, and DrainTau must hand take only enabled steps.
func TestDrainTauMatchesStepLoop(t *testing.T) {
	topo := fuzzTopo()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewState(topo)
		for n := rng.Intn(400); n > 0; n-- {
			m := MachineID(rng.Intn(topo.NumMachines()))
			x := LocID(rng.Intn(topo.NumLocs()))
			v := Val(1 + rng.Intn(3))
			if cv, held := s.CachedValue(x); held {
				v = cv // keep the global invariant
			}
			s.SetCache(m, x, v)
		}
		loop, walked := s.Clone(), s.Clone()
		for loop.TauStepCount() > 0 {
			ApplyTauInPlace(loop, loop.TauStepAt(0))
		}
		walked.DrainTau(func(ts TauStep) { ApplyTauInPlace(walked, ts) })
		if !walked.Equal(loop) || !walked.CachesEmpty() {
			t.Fatalf("seed %d: from %v\nDrainTau ends in %v\nthe TauStepAt(0) loop in %v", seed, s, walked, loop)
		}
		if err := walked.CheckInvariant(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLocNamesRoundTrip: every location's name resolves back to it, for
// named locations and for the anonymous ranges whose names are made on
// demand, and nothing else of the anonymous form resolves.
func TestLocNamesRoundTrip(t *testing.T) {
	topo := fuzzTopo()
	for l := LocID(0); int(l) < topo.NumLocs(); l++ {
		name := topo.LocName(l)
		if got, ok := topo.LocByName(name); !ok || got != l {
			t.Fatalf("LocByName(LocName(%d) = %q) = %d, %v", l, name, got, ok)
		}
	}
	for _, want := range []struct {
		l    LocID
		name string
	}{{0, "a[0]"}, {69, "a[69]"}, {70, "x"}, {71, "b[71]"}, {4228, "a[4228]"}} {
		if got := topo.LocName(want.l); got != want.name {
			t.Errorf("LocName(%d) = %q, want %q", want.l, got, want.name)
		}
	}
	for _, ghost := range []string{
		"b[70]",   // x's ID: a named location has only its given name
		"b[69]",   // owned by a
		"a[4231]", // past the end
		"a[-1]", "a[+1]", "a[01]", "a[1", "a1]", "a[]", "[1]", "q[1]", "",
	} {
		if l, ok := topo.LocByName(ghost); ok {
			t.Errorf("LocByName(%q) found location %d", ghost, l)
		}
	}
}

// TestAnonymousNameCollisionPanics: a named location may not take the name
// of an anonymous one, whichever of the two is registered first.
func TestAnonymousNameCollisionPanics(t *testing.T) {
	for _, order := range []struct {
		name  string
		build func(*Topology, MachineID)
	}{
		{"AddLoc after AddLocs", func(topo *Topology, m MachineID) {
			topo.AddLocs(m, 4)
			topo.AddLoc("m[2]", m)
		}},
		{"AddLocs after AddLoc", func(topo *Topology, m MachineID) {
			topo.AddLoc("m[2]", m)
			topo.AddLocs(m, 4)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: two locations named m[2] and no panic", order.name)
				}
			}()
			topo := NewTopology()
			order.build(topo, topo.AddMachine("m", NonVolatile))
		}()
	}
	// The same spelling is free while no anonymous location answers to it.
	topo := NewTopology()
	m := topo.AddMachine("m", NonVolatile)
	topo.AddLocs(m, 2)
	if l := topo.AddLoc("m[7]", m); topo.LocName(l) != "m[7]" {
		t.Errorf("LocName(%d) = %q, want the given name m[7]", l, topo.LocName(l))
	}
}

// TestOwnerOutsideTheTopologyPanicsByName: asking for the owner of a
// location that was never registered is a caller's bug, reported like
// AddLoc and AddLocs report theirs.
func TestOwnerOutsideTheTopologyPanicsByName(t *testing.T) {
	topo := fuzzTopo()
	for _, l := range []LocID{-1, LocID(topo.NumLocs()), LocID(topo.NumLocs()) + 7} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: Owner:") {
					t.Errorf("Owner(%d) panicked with %q, want a core: message", l, msg)
				}
			}()
			topo.Owner(l)
		}()
	}
}
