package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomLabel draws a random label over a two-machine topology.
func randomLabel(rng *rand.Rand) Label {
	m := MachineID(rng.Intn(2))
	x := LocID(rng.Intn(2))
	v := Val(rng.Intn(3))
	switch rng.Intn(11) {
	case 0:
		return LoadL(m, x, v)
	case 1:
		return LStoreL(m, x, v)
	case 2:
		return RStoreL(m, x, v)
	case 3:
		return MStoreL(m, x, v)
	case 4:
		return LFlushL(m, x)
	case 5:
		return RFlushL(m, x)
	case 6:
		return CrashL(m)
	case 7:
		return RMWL(OpLRMW, m, x, v, Val(rng.Intn(3)))
	case 8:
		return RFlushRangeL(m, x, 1+rng.Intn(2-int(x)))
	case 9:
		return RMWL(OpRRMW, m, x, v, Val(rng.Intn(3)))
	default:
		return RMWL(OpMRMW, m, x, v, Val(rng.Intn(3)))
	}
}

// TestInPlaceAgreesWithApply property-checks the rules against the dense
// mirror (dense_test.go): for random states and labels, ApplyInPlace is
// enabled exactly when the mirror's apply is, a disabled label mutates
// nothing, and the state after every labeled step and every τ step answers
// as the mirror does that the same steps were replayed into (sameState).
// Apply and ApplyTau are held to a wrapper's contract: they leave their
// argument alone, Apply returns nil iff the label is disabled, and
// otherwise each returns one state Equal to the in-place result.
func TestInPlaceAgreesWithApply(t *testing.T) {
	topo := NewTopology()
	m0 := topo.AddMachine("m1", NonVolatile)
	m1 := topo.AddMachine("m2", Volatile)
	topo.AddLoc("x", m0)
	topo.AddLoc("y", m1)

	f := func(seed int64, variantRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		variant := Variants[int(variantRaw)%len(Variants)]
		s, d := NewState(topo), newDense(topo)
		mirrored := func(what string, st *State) bool {
			if err := sameState(st, d); err != nil {
				t.Logf("after %s: %v", what, err)
				return false
			}
			return true
		}
		for step := 0; step < 40; step++ {
			if rng.Intn(5) == 0 {
				// Plant or drop a copy directly, keeping the global
				// invariant: a planted copy repeats the line's cached value.
				m, x := MachineID(rng.Intn(2)), LocID(rng.Intn(2))
				v := Bot
				if rng.Intn(2) == 0 {
					if v = Val(rng.Intn(3)); !s.NoCacheHolds(x) {
						v, _ = s.CachedValue(x)
					}
				}
				s = s.Clone()
				s.SetCache(m, x, v)
				d.cache[m][x] = v
				if !mirrored("SetCache on a clone", s) {
					return false
				}
			}
			l := randomLabel(rng)
			viaClone := Apply(s, l, variant)
			if !mirrored("Apply of "+l.String()+" to it", s) {
				return false
			}
			inPlace := s.Clone()
			enabled := ApplyInPlace(inPlace, l, variant)
			if !enabled && !inPlace.Equal(s) {
				t.Logf("disabled %v mutated the state", l)
				return false
			}
			if want := d.apply(l, variant); want != enabled {
				t.Logf("%v enabled in place: %v, in the mirror: %v (state %v)", l, enabled, want, s)
				return false
			}
			if !mirrored(l.String(), inPlace) {
				return false
			}
			if !enabled {
				if viaClone != nil {
					t.Logf("Apply of the disabled %v returned %v", l, viaClone)
					return false
				}
				continue
			}
			if len(viaClone) != 1 || !viaClone[0].Equal(inPlace) {
				t.Logf("Apply of %v to %v returned %v, in place it is %v", l, s, viaClone, inPlace)
				return false
			}
			s = inPlace
			// Occasionally interleave a τ step.
			if steps := TauSteps(s); len(steps) > 0 && rng.Intn(3) == 0 {
				ts := steps[rng.Intn(len(steps))]
				cloned := ApplyTau(s, ts)
				if !mirrored("ApplyTau of "+ts.String()+" to it", s) {
					return false
				}
				ApplyTauInPlace(s, ts)
				d.tau(ts)
				if !mirrored(ts.String(), s) {
					return false
				}
				if !cloned.Equal(s) {
					t.Logf("ApplyTau of %v returned %v, in place it is %v", ts, cloned, s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashInPlaceMatchesCrash holds CrashInPlace, which visits only the
// lines some cache holds and the crashed machine's runs, to the mirror's
// crash, which looks at every location, on random states under all
// variants; Crash must return a state Equal to it and leave its argument
// alone.
func TestCrashInPlaceMatchesCrash(t *testing.T) {
	topo := NewTopology()
	m0 := topo.AddMachine("m1", NonVolatile)
	m1 := topo.AddMachine("m2", Volatile)
	x := topo.AddLoc("x", m0)
	y := topo.AddLoc("y", m1)

	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 300; iter++ {
		d := newDense(topo)
		for _, l := range []LocID{x, y} {
			if rng.Intn(2) == 0 {
				d.cache[rng.Intn(2)][l] = Val(rng.Intn(3))
			}
		}
		d.mem[x], d.mem[y] = Val(rng.Intn(3)), Val(rng.Intn(3))
		s := d.state()
		for _, variant := range Variants {
			for _, m := range []MachineID{m0, m1} {
				want := d.clone()
				want.crash(m, variant)
				got := s.Clone()
				CrashInPlace(got, m, variant)
				if err := sameState(got, want); err != nil {
					t.Fatalf("crash of machine %d under %v in %v: %v", m, variant, s, err)
				}
				if cloned := Crash(s, m, variant); !cloned.Equal(got) || sameState(s, d) != nil {
					t.Fatalf("Crash of machine %d under %v: returned %v from %v, in place it is %v", m, variant, cloned, s, got)
				}
			}
		}
	}
}

// TestObservedMatchesDense drives State.Observed against the mirror's load
// rule: with the issuer's own copy, a peer's copy only, and no copy, under
// each variant, Observed must name exactly the value for which the mirror
// enables a Load — none when it blocks (LWB beside a peer's copy).
func TestObservedMatchesDense(t *testing.T) {
	topo := NewTopology()
	m0 := topo.AddMachine("m1", NonVolatile)
	m1 := topo.AddMachine("m2", NonVolatile)
	x := topo.AddLoc("x", m0)

	for _, tc := range []struct {
		name    string
		holder  MachineID // of the only copy, 2; -1: no cache holds x
		blocked []Variant
	}{
		{"own copy", m1, nil},
		{"peer's copy", m0, []Variant{LWB}},
		{"no copy", -1, nil},
	} {
		d := newDense(topo)
		d.mem[x] = 1
		if tc.holder >= 0 {
			d.cache[tc.holder][x] = 2
		}
		s := d.state()
		for _, v := range Variants {
			got, ok := s.Observed(m1, x, v)
			if ok == slices.Contains(tc.blocked, v) {
				t.Errorf("%s, %v: Observed ok = %v", tc.name, v, ok)
			}
			for val := Val(0); val < 3; val++ {
				if enabled := d.clone().apply(LoadL(m1, x, val), v); enabled != (ok && got == val) {
					t.Errorf("%s, %v: the mirror enables Load(%d): %v; Observed = %d, %v", tc.name, v, val, enabled, got, ok)
				}
			}
		}
	}
}
