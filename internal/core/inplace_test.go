package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomLabel draws a random label over a two-machine topology.
func randomLabel(rng *rand.Rand) Label {
	m := MachineID(rng.Intn(2))
	x := LocID(rng.Intn(2))
	v := Val(rng.Intn(3))
	switch rng.Intn(10) {
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
	default:
		return RMWL(OpMRMW, m, x, v, Val(rng.Intn(3)))
	}
}

// TestInPlaceAgreesWithApply property-checks that ApplyInPlace defines the
// same (deterministic fragment of the) transition relation as Apply: for
// random states and labels, enabledness matches, and when enabled the
// in-place result equals Apply's successor. Every state either API
// produces must also answer as the dense mirror does that the same labels
// were replayed into (sameState), and Apply must leave its argument alone.
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
		mirrored := func(what string, d *dense, states ...*State) bool {
			for _, st := range states {
				if err := sameState(st, d); err != nil {
					t.Logf("after %s: %v", what, err)
					return false
				}
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
				if !mirrored("SetCache on a clone", d, s) {
					return false
				}
			}
			l := randomLabel(rng)
			viaClone := Apply(s, l, variant)
			inPlace := s.Clone()
			enabled := ApplyInPlace(inPlace, l, variant)
			if !mirrored("Apply of "+l.String()+" to it", d, s) {
				return false
			}
			if want := d.apply(l, variant); want != enabled {
				t.Logf("%v enabled in place: %v, in the mirror: %v (state %v)", l, enabled, want, s)
				return false
			}
			if !mirrored(l.String(), d, append(viaClone, inPlace)...) {
				return false
			}
			if enabled != (len(viaClone) > 0) {
				t.Logf("enabledness mismatch at %v (state %v): clone=%d inplace=%v",
					l, s, len(viaClone), enabled)
				return false
			}
			if !enabled {
				// Also check the failed in-place application left the state
				// alone (loads/RMWs may not, per contract, mutate on failure).
				if !inPlace.Equal(s) {
					t.Logf("disabled %v mutated the state", l)
					return false
				}
				continue
			}
			if len(viaClone) != 1 {
				t.Logf("nondeterministic label %v yields %d successors", l, len(viaClone))
				return false
			}
			if !inPlace.Equal(viaClone[0]) {
				t.Logf("result mismatch at %v: %v vs %v", l, inPlace, viaClone[0])
				return false
			}
			s = viaClone[0]
			// Occasionally interleave a τ step through both APIs.
			if steps := TauSteps(s); len(steps) > 0 && rng.Intn(3) == 0 {
				ts := steps[rng.Intn(len(steps))]
				cloned := ApplyTau(s, ts)
				ip := s.Clone()
				ApplyTauInPlace(ip, ts)
				if !ip.Equal(cloned) {
					t.Logf("τ mismatch at %v", ts)
					return false
				}
				d.tau(ts)
				if !mirrored(ts.String(), d, ip, cloned) {
					return false
				}
				s = cloned
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashInPlaceMatchesCrash compares the two crash implementations on
// random states under all variants.
func TestCrashInPlaceMatchesCrash(t *testing.T) {
	topo := NewTopology()
	m0 := topo.AddMachine("m1", NonVolatile)
	m1 := topo.AddMachine("m2", Volatile)
	x := topo.AddLoc("x", m0)
	y := topo.AddLoc("y", m1)

	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 300; iter++ {
		s := NewState(topo)
		if rng.Intn(2) == 0 {
			s.SetCache(MachineID(rng.Intn(2)), x, Val(rng.Intn(3)))
		}
		if rng.Intn(2) == 0 {
			s.SetCache(MachineID(rng.Intn(2)), y, Val(rng.Intn(3)))
		}
		s.SetMem(x, Val(rng.Intn(3)))
		s.SetMem(y, Val(rng.Intn(3)))
		if s.CheckInvariant() != nil {
			continue
		}
		for _, variant := range Variants {
			for _, m := range []MachineID{m0, m1} {
				want := Crash(s, m, variant)
				got := s.Clone()
				CrashInPlace(got, m, variant)
				if !got.Equal(want) {
					t.Fatalf("crash mismatch: machine %d variant %v state %v", m, variant, s)
				}
			}
		}
	}
}
