package core

import "testing"

// twoMachines builds the standard two-machine topology of Figure 1: machine
// 0 owns x, machine 1 owns y, both non-volatile unless flipped by the test.
func twoMachines(t *testing.T) (*Topology, LocID, LocID) {
	t.Helper()
	topo := NewTopology()
	m0 := topo.AddMachine("left", NonVolatile)
	m1 := topo.AddMachine("right", NonVolatile)
	x := topo.AddLoc("x", m0)
	y := topo.AddLoc("y", m1)
	return topo, x, y
}

func mustApply(t *testing.T, s *State, l Label, v Variant) *State {
	t.Helper()
	out := Apply(s, l, v)
	if len(out) != 1 {
		t.Fatalf("Apply(%v) under %v: got %d successors, want 1 (state %v)", l, v, len(out), s)
	}
	if err := out[0].CheckInvariant(); err != nil {
		t.Fatalf("Apply(%v): invariant broken: %v", l, err)
	}
	return out[0]
}

func TestInitialState(t *testing.T) {
	topo, x, y := twoMachines(t)
	s := NewState(topo)
	for m := 0; m < topo.NumMachines(); m++ {
		for l := 0; l < topo.NumLocs(); l++ {
			if got := s.Cache(MachineID(m), LocID(l)); got != Bot {
				t.Errorf("initial C%d(loc%d) = %d, want ⊥", m, l, got)
			}
		}
	}
	if s.Mem(x) != 0 || s.Mem(y) != 0 {
		t.Errorf("initial memory not zeroed: %v", s)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Errorf("initial state breaks invariant: %v", err)
	}
}

func TestLStoreWritesIssuerCacheAndInvalidatesOthers(t *testing.T) {
	topo, x, _ := twoMachines(t)
	s := NewState(topo)
	s.SetCache(1, x, 0) // stale copy at machine 1
	n := mustApply(t, s, LStoreL(0, x, 7), Base)
	if n.Cache(0, x) != 7 {
		t.Errorf("C0(x) = %d, want 7", n.Cache(0, x))
	}
	if n.Cache(1, x) != Bot {
		t.Errorf("C1(x) = %d, want ⊥ (invalidated)", n.Cache(1, x))
	}
	if n.Mem(x) != 0 {
		t.Errorf("M(x) = %d, want 0 (LStore must not touch memory)", n.Mem(x))
	}
}

func TestRStoreWritesOwnerCache(t *testing.T) {
	topo, _, y := twoMachines(t)
	s := NewState(topo)
	n := mustApply(t, s, RStoreL(0, y, 5), Base)
	if n.Cache(1, y) != 5 {
		t.Errorf("C1(y) = %d, want 5 (owner's cache)", n.Cache(1, y))
	}
	if n.Cache(0, y) != Bot {
		t.Errorf("C0(y) = %d, want ⊥", n.Cache(0, y))
	}
	if n.Mem(y) != 0 {
		t.Errorf("M(y) = %d, want 0", n.Mem(y))
	}
}

func TestRStoreByOwnerEqualsLStore(t *testing.T) {
	topo, x, _ := twoMachines(t)
	s := NewState(topo)
	a := mustApply(t, s, RStoreL(0, x, 3), Base)
	b := mustApply(t, s, LStoreL(0, x, 3), Base)
	if !a.Equal(b) {
		t.Errorf("owner RStore %v != owner LStore %v", a, b)
	}
	_ = topo
}

func TestMStoreWritesMemoryAndInvalidatesAllCaches(t *testing.T) {
	topo, _, y := twoMachines(t)
	s := NewState(topo)
	s.SetCache(0, y, 2)
	n := mustApply(t, s, MStoreL(0, y, 9), Base)
	if n.Mem(y) != 9 {
		t.Errorf("M(y) = %d, want 9", n.Mem(y))
	}
	if !n.NoCacheHolds(y) {
		t.Errorf("caches still hold y after MStore: %v", n)
	}
	_ = topo
}

func TestLoadFromCacheCopiesIntoIssuer(t *testing.T) {
	topo, _, y := twoMachines(t)
	s := NewState(topo)
	s.SetCache(1, y, 4)
	n := mustApply(t, s, LoadL(0, y, 4), Base)
	if n.Cache(0, y) != 4 {
		t.Errorf("C0(y) = %d, want 4 (load must replicate into issuer's cache)", n.Cache(0, y))
	}
	if n.Cache(1, y) != 4 {
		t.Errorf("C1(y) = %d, want 4 (source copy must remain)", n.Cache(1, y))
	}
	_ = topo
}

func TestLoadWrongValueNotEnabled(t *testing.T) {
	topo, x, _ := twoMachines(t)
	s := NewState(topo)
	s.SetCache(0, x, 4)
	if out := Apply(s, LoadL(1, x, 5), Base); len(out) != 0 {
		t.Errorf("load of wrong value enabled: %d successors", len(out))
	}
	// Load-from-M is blocked while any cache holds the line.
	if out := Apply(s, LoadL(1, x, 0), Base); len(out) != 0 {
		t.Errorf("load served from memory while cache holds the line")
	}
	_ = topo
}

func TestLoadFromMemoryWhenNoCacheHolds(t *testing.T) {
	topo, x, _ := twoMachines(t)
	s := NewState(topo)
	s.SetMem(x, 8)
	n := mustApply(t, s, LoadL(1, x, 8), Base)
	// LOAD-from-M does not populate any cache.
	if n.Cache(1, x) != Bot {
		t.Errorf("C1(x) = %d, want ⊥ (LOAD-from-M leaves caches unchanged)", n.Cache(1, x))
	}
	_ = topo
}

func TestLWBLoadOnlyFromOwnCacheOrMemory(t *testing.T) {
	topo, x, _ := twoMachines(t)
	s := NewState(topo)
	s.SetCache(0, x, 4)
	// Machine 1 cannot read machine 0's cache under LWB.
	if out := Apply(s, LoadL(1, x, 4), LWB); len(out) != 0 {
		t.Errorf("LWB load served from a peer's cache")
	}
	// Machine 0 can read its own cache, with no state change.
	n := mustApply(t, s, LoadL(0, x, 4), LWB)
	if !n.Equal(s) {
		t.Errorf("LWB own-cache load changed state: %v -> %v", s, n)
	}
	// After draining, machine 1 loads from memory.
	drained := ApplyTau(s, TauStep{From: 0, Loc: x, ToMemory: true})
	n2 := mustApply(t, drained, LoadL(1, x, 4), LWB)
	if n2.Cache(1, x) != Bot {
		t.Errorf("LWB memory load populated cache")
	}
	_ = topo
}

func TestFlushPreconditions(t *testing.T) {
	topo, _, y := twoMachines(t)
	s := NewState(topo)
	s.SetCache(0, y, 6)

	if out := Apply(s, LFlushL(0, y), Base); len(out) != 0 {
		t.Errorf("LFlush enabled while issuer caches the line")
	}
	if out := Apply(s, RFlushL(0, y), Base); len(out) != 0 {
		t.Errorf("RFlush enabled while some cache holds the line")
	}
	if out := Apply(s, GPFL(0), Base); len(out) != 0 {
		t.Errorf("GPF enabled while caches are non-empty")
	}

	// One horizontal propagation satisfies LFlush for machine 0 but not
	// RFlush; a further vertical propagation satisfies both.
	h := ApplyTau(s, TauStep{From: 0, Loc: y, ToMemory: false})
	if len(Apply(h, LFlushL(0, y), Base)) != 1 {
		t.Errorf("LFlush not enabled after issuer's copy propagated")
	}
	if len(Apply(h, RFlushL(0, y), Base)) != 0 {
		t.Errorf("RFlush enabled while owner cache holds the line")
	}
	vy := ApplyTau(h, TauStep{From: 1, Loc: y, ToMemory: true})
	if len(Apply(vy, RFlushL(0, y), Base)) != 1 {
		t.Errorf("RFlush not enabled after full drain")
	}
	if vy.Mem(y) != 6 {
		t.Errorf("M(y) = %d after drain, want 6", vy.Mem(y))
	}
	if len(Apply(vy, GPFL(0), Base)) != 1 {
		t.Errorf("GPF not enabled after all caches drained")
	}
	_ = topo
}

func TestTauStepsEnumeration(t *testing.T) {
	topo, x, y := twoMachines(t)
	s := NewState(topo)
	s.SetCache(0, x, 1) // owner: vertical only
	s.SetCache(0, y, 2) // non-owner: horizontal only
	steps := TauSteps(s)
	if len(steps) != 2 {
		t.Fatalf("TauSteps: got %d steps %v, want 2", len(steps), steps)
	}
	var sawVert, sawHoriz bool
	for _, st := range steps {
		if st.Loc == x && st.ToMemory && st.From == 0 {
			sawVert = true
		}
		if st.Loc == y && !st.ToMemory && st.From == 0 {
			sawHoriz = true
		}
	}
	if !sawVert || !sawHoriz {
		t.Errorf("missing expected τ steps: %v", steps)
	}
}

func TestVerticalPropagationInvalidatesAllCaches(t *testing.T) {
	topo, x, _ := twoMachines(t)
	s := NewState(topo)
	s.SetCache(0, x, 3)
	s.SetCache(1, x, 3) // shared copy
	n := ApplyTau(s, TauStep{From: 0, Loc: x, ToMemory: true})
	if n.Mem(x) != 3 {
		t.Errorf("M(x) = %d, want 3", n.Mem(x))
	}
	if !n.NoCacheHolds(x) {
		t.Errorf("caches still hold x after vertical propagation: %v", n)
	}
	_ = topo
}

func TestCrashVolatileVsNonVolatile(t *testing.T) {
	topo := NewTopology()
	mv := topo.AddMachine("vol", Volatile)
	mn := topo.AddMachine("nvm", NonVolatile)
	a := topo.AddLoc("a", mv)
	b := topo.AddLoc("b", mn)
	s := NewState(topo)
	s.SetMem(a, 5)
	s.SetMem(b, 6)
	s.SetCache(mv, b, 9)

	afterV := Crash(s, mv, Base)
	if afterV.Mem(a) != 0 {
		t.Errorf("volatile memory survived crash: M(a)=%d", afterV.Mem(a))
	}
	if afterV.Cache(mv, b) != Bot {
		t.Errorf("crashed machine's cache survived")
	}
	if afterV.Mem(b) != 6 {
		t.Errorf("peer memory affected by crash: M(b)=%d", afterV.Mem(b))
	}

	afterN := Crash(s, mn, Base)
	if afterN.Mem(b) != 6 {
		t.Errorf("non-volatile memory lost on crash: M(b)=%d", afterN.Mem(b))
	}
}

func TestCrashPSNPoisonsRemoteCopies(t *testing.T) {
	topo, x, y := twoMachines(t)
	s := NewState(topo)
	s.SetCache(1, x, 7) // machine 1 caches a line owned by machine 0
	s.SetCache(1, y, 8) // machine 1's own line

	base := Crash(s, 0, Base)
	if base.Cache(1, x) != 7 {
		t.Errorf("base crash invalidated a remote copy: C1(x)=%d", base.Cache(1, x))
	}
	psn := Crash(s, 0, PSN)
	if psn.Cache(1, x) != Bot {
		t.Errorf("PSN crash did not poison remote copy of owned line")
	}
	if psn.Cache(1, y) != 8 {
		t.Errorf("PSN crash poisoned an unrelated line: C1(y)=%d", psn.Cache(1, y))
	}
	_ = topo
}

func TestRMWKinds(t *testing.T) {
	topo, _, y := twoMachines(t)
	s := NewState(topo)

	// L-RMW from memory: all caches empty, M(y)=0, CAS 0->4.
	n := mustApply(t, s, RMWL(OpLRMW, 0, y, 0, 4), Base)
	if n.Cache(0, y) != 4 || n.Mem(y) != 0 {
		t.Errorf("L-RMW: got %v", n)
	}
	// Failed RMW is not a transition (callers model it as a Load).
	if out := Apply(s, RMWL(OpLRMW, 0, y, 3, 4), Base); len(out) != 0 {
		t.Errorf("RMW with wrong expected value enabled")
	}
	// R-RMW from a cached copy.
	s2 := NewState(topo)
	s2.SetCache(0, y, 1)
	n2 := mustApply(t, s2, RMWL(OpRRMW, 0, y, 1, 2), Base)
	if n2.Cache(1, y) != 2 || n2.Cache(0, y) != Bot {
		t.Errorf("R-RMW: got %v", n2)
	}
	// M-RMW persists directly.
	n3 := mustApply(t, s, RMWL(OpMRMW, 1, y, 0, 5), Base)
	if n3.Mem(y) != 5 || !n3.NoCacheHolds(y) {
		t.Errorf("M-RMW: got %v", n3)
	}
	_ = topo
}

func TestInvariantDetectsDivergentCaches(t *testing.T) {
	topo, x, _ := twoMachines(t)
	s := NewState(topo)
	s.SetCache(0, x, 1)
	s.SetCache(1, x, 2)
	if err := s.CheckInvariant(); err == nil {
		t.Errorf("divergent caches not caught by invariant")
	}
	_ = topo
}

func TestKeyRoundTrip(t *testing.T) {
	topo, x, y := twoMachines(t)
	a := NewState(topo)
	b := NewState(topo)
	if a.Key() != b.Key() {
		t.Errorf("equal states, different keys")
	}
	a.SetCache(0, x, 1)
	if a.Key() == b.Key() {
		t.Errorf("different states, same key")
	}
	b.SetCache(0, x, 1)
	if a.Key() != b.Key() {
		t.Errorf("equal states after mutation, different keys")
	}
	a.SetMem(y, 3)
	if a.Key() == b.Key() {
		t.Errorf("memory difference not reflected in key")
	}
}

func TestSetupAvailability(t *testing.T) {
	cases := []struct {
		setup Setup
		role  NodeRole
		op    Op
		want  bool
	}{
		{FullCXL0, RoleHost, OpRStore, true},
		{HostDevicePair, RoleHost, OpRStore, false},
		{HostDevicePair, RoleDevice, OpRStore, true},
		{HostDevicePair, RoleHost, OpLFlush, false},
		{HostDevicePair, RoleDevice, OpLFlush, false},
		{HostDevicePair, RoleHost, OpMStore, true},
		{HostDevicePair, RoleHost, OpRRMW, false},
		{PartitionedPool, RoleHost, OpRStore, false},
		{PartitionedPool, RoleHost, OpMStore, true},
		{PartitionedPool, RoleHost, OpLFlush, true},
		{SharedPoolCoherent, RoleHost, OpLFlush, false},
		{SharedPoolCoherent, RoleHost, OpRFlush, true},
		{SharedPoolNonCoherent, RoleHost, OpLStore, false},
		{SharedPoolNonCoherent, RoleHost, OpMStore, true},
		{SharedPoolNonCoherent, RoleHost, OpMRMW, true},
		{SharedPoolNonCoherent, RoleHost, OpLoad, true},
	}
	for _, c := range cases {
		if got := c.setup.Available(c.role, c.op); got != c.want {
			t.Errorf("%v.Available(%v, %v) = %v, want %v", c.setup, c.role, c.op, got, c.want)
		}
	}
}

func TestParseVariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Variant
	}{{"base", Base}, {"psn", PSN}, {"lwb", LWB}, {" PSN ", PSN}} {
		if got, err := ParseVariant(tc.name); err != nil || got != tc.want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"", "cxl0", "CXL0-PSN"} {
		if _, err := ParseVariant(name); err == nil {
			t.Errorf("ParseVariant(%q) accepted", name)
		}
	}
}
