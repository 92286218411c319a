package core

import (
	"fmt"
	"strings"
	"testing"
)

// indexAgrees holds s's occupancy index to the full scans it stands in
// for: TauStepCount and TauStepAt against TauSteps, CachesEmpty against a
// walk of every cell.
func indexAgrees(s *State) error {
	steps := TauSteps(s)
	if n := s.TauStepCount(); n != len(steps) {
		return fmt.Errorf("TauStepCount = %d, TauSteps enumerates %d in %v", n, len(steps), s)
	}
	for k, want := range steps {
		if got := s.TauStepAt(k); got != want {
			return fmt.Errorf("TauStepAt(%d) = %v, TauSteps[%d] = %v", k, got, k, want)
		}
	}
	empty := true
	for m := range s.cache {
		for _, v := range s.cache[m] {
			empty = empty && v == Bot
		}
	}
	if s.CachesEmpty() != empty {
		return fmt.Errorf("CachesEmpty = %v, a scan says %v", s.CachesEmpty(), empty)
	}
	return nil
}

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
// (and now and then to a clone that replaces it), and holds the index to
// the full scans after every one. The seed corpus is
// testdata/fuzz/FuzzTauIndex.
func FuzzTauIndex(f *testing.F) {
	topo := fuzzTopo()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewState(topo)
		for ; len(data) >= 4; data = data[4:] {
			m := MachineID(int(data[1]) % topo.NumMachines())
			x := LocID((int(data[2])<<8 | int(data[3])) % topo.NumLocs())
			v := Val(data[1] % 3)
			switch data[0] % 12 {
			case 0:
				ApplyInPlace(s, LStoreL(m, x, v), Base)
			case 1:
				ApplyInPlace(s, RStoreL(m, x, v), Base)
			case 2:
				ApplyInPlace(s, MStoreL(m, x, v), Base)
			case 3:
				ApplyInPlace(s, LoadL(m, x, s.Readable(x)), Base)
			case 4:
				ApplyInPlace(s, RFlushL(m, x), LWB)
			case 5:
				ApplyInPlace(s, RMWL(OpRRMW, m, x, s.Readable(x), v), Base)
			case 6:
				if n := s.TauStepCount(); n > 0 {
					ts := s.TauStepAt(int(x) % n)
					cloned := ApplyTau(s, ts)
					ApplyTauInPlace(s, ts)
					if !s.Equal(cloned) {
						t.Fatalf("%v: in place %v, cloned %v", ts, s, cloned)
					}
					if err := indexAgrees(cloned); err != nil {
						t.Fatalf("ApplyTau(%v): %v", ts, err)
					}
				}
			case 7:
				CrashInPlace(s, m, Base)
			case 8:
				cloned := Crash(s, m, PSN)
				CrashInPlace(s, m, PSN)
				if !s.Equal(cloned) {
					t.Fatalf("PSN crash of %d: in place %v, cloned %v", m, s, cloned)
				}
				if err := indexAgrees(cloned); err != nil {
					t.Fatalf("Crash(%d, PSN): %v", m, err)
				}
			case 9:
				s = s.Clone()
			case 10:
				if cv, held := s.CachedValue(x); held {
					v = cv // keep the global invariant
				}
				s.SetCache(m, x, v)
			case 11:
				s.SetCache(m, x, Bot)
			}
			if err := indexAgrees(s); err != nil {
				t.Fatalf("op %v: %v", data[:4], err)
			}
		}
	})
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
