package core

import (
	"strings"
	"testing"
)

func TestOpPredicates(t *testing.T) {
	stores := []Op{OpLStore, OpRStore, OpMStore}
	rmws := []Op{OpLRMW, OpRRMW, OpMRMW}
	flushes := []Op{OpLFlush, OpRFlush, OpGPF}
	for _, op := range stores {
		if !op.IsStore() || op.IsRMW() || op.IsFlush() {
			t.Errorf("%v predicates wrong", op)
		}
	}
	for _, op := range rmws {
		if !op.IsRMW() || op.IsStore() || op.IsFlush() {
			t.Errorf("%v predicates wrong", op)
		}
	}
	for _, op := range flushes {
		if !op.IsFlush() || op.IsStore() || op.IsRMW() {
			t.Errorf("%v predicates wrong", op)
		}
	}
	if OpLoad.IsStore() || OpLoad.IsRMW() || OpLoad.IsFlush() || OpCrash.IsStore() {
		t.Errorf("Load/Crash predicates wrong")
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpLoad: "Load", OpLStore: "LStore", OpRStore: "RStore", OpMStore: "MStore",
		OpLFlush: "LFlush", OpRFlush: "RFlush", OpGPF: "GPF",
		OpLRMW: "L-RMW", OpRRMW: "R-RMW", OpMRMW: "M-RMW", OpCrash: "E",
	}
	for op, s := range want { //cxl0:order-insensitive — independent per-op asserts
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), s)
		}
	}
}

func TestLabelString(t *testing.T) {
	cases := []struct {
		l    Label
		want string
	}{
		{LStoreL(0, 1, 5), "LStore0(loc1,5)"},
		{LoadL(1, 0, 3), "Load1(loc0,3)"},
		{RFlushL(2, 1), "RFlush2(loc1)"},
		{GPFL(0), "GPF0"},
		{CrashL(1), "E1"},
		{RMWL(OpLRMW, 0, 1, 2, 3), "L-RMW0(loc1,2,3)"},
	}
	for _, c := range cases {
		if got := c.l.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestLabelPretty(t *testing.T) {
	topo := NewTopology()
	m1 := topo.AddMachine("machine1", NonVolatile)
	x := topo.AddLoc("x1", m1)
	// Pretty uses the paper's 1-based machine numbering.
	if got := LStoreL(m1, x, 1).Pretty(topo); got != "LStore1(x1,1)" {
		t.Errorf("Pretty = %q", got)
	}
	if got := CrashL(m1).Pretty(topo); got != "E1" {
		t.Errorf("Pretty crash = %q", got)
	}
	if got := RMWL(OpMRMW, m1, x, 0, 2).Pretty(topo); got != "M-RMW1(x1,0,2)" {
		t.Errorf("Pretty RMW = %q", got)
	}
	if got := LFlushL(m1, x).Pretty(topo); got != "LFlush1(x1)" {
		t.Errorf("Pretty flush = %q", got)
	}
	if got := GPFL(m1).Pretty(topo); got != "GPF1" {
		t.Errorf("Pretty GPF = %q", got)
	}
}

func TestRMWLPanicsOnNonRMW(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RMWL with a store op did not panic")
		}
	}()
	RMWL(OpLStore, 0, 0, 0, 1)
}

func TestTopologyAccessors(t *testing.T) {
	topo := NewTopology()
	m1 := topo.AddMachine("alpha", NonVolatile)
	m2 := topo.AddMachine("beta", Volatile)
	x := topo.AddLoc("x", m1)
	y := topo.AddLoc("y", m2)

	if topo.NumMachines() != 2 || topo.NumLocs() != 2 {
		t.Fatalf("counts wrong")
	}
	if topo.MachineName(m2) != "beta" || topo.LocName(y) != "y" {
		t.Errorf("names wrong")
	}
	if topo.Owner(x) != m1 || topo.Owner(y) != m2 {
		t.Errorf("owners wrong")
	}
	if topo.Mem(m1) != NonVolatile || topo.Mem(m2) != Volatile {
		t.Errorf("memory kinds wrong")
	}
	if got, ok := topo.LocByName("x"); !ok || got != x {
		t.Errorf("LocByName(x) = %v, %v", got, ok)
	}
	if _, ok := topo.LocByName("zzz"); ok {
		t.Errorf("LocByName found a ghost")
	}
	if NonVolatile.String() != "non-volatile" || Volatile.String() != "volatile" {
		t.Errorf("MemKind strings wrong")
	}
}

func TestTopologyDuplicateLocPanics(t *testing.T) {
	topo := NewTopology()
	m := topo.AddMachine("m", NonVolatile)
	topo.AddLoc("x", m)
	defer func() {
		if recover() == nil {
			t.Error("duplicate location name did not panic")
		}
	}()
	topo.AddLoc("x", m)
}

func TestAddLocsContiguous(t *testing.T) {
	topo := NewTopology()
	m := topo.AddMachine("m", NonVolatile)
	first := topo.AddLocs(m, 5)
	if topo.NumLocs() != 5 {
		t.Fatalf("NumLocs = %d", topo.NumLocs())
	}
	for i := 0; i < 5; i++ {
		if topo.Owner(first+LocID(i)) != m {
			t.Errorf("loc %d owner wrong", i)
		}
	}
}

func TestAddLocsUnknownMachinePanics(t *testing.T) {
	for _, call := range []struct {
		name string
		add  func(*Topology)
	}{
		{"AddLoc", func(topo *Topology) { topo.AddLoc("x", 3) }},
		{"AddLocs", func(topo *Topology) { topo.AddLocs(3, 2) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "no machine 3") {
					t.Errorf("%s on an unknown machine: panic %q, want one naming machine 3", call.name, msg)
				}
			}()
			topo := NewTopology()
			topo.AddMachine("m", NonVolatile)
			call.add(topo)
		}()
	}
}

func TestStateString(t *testing.T) {
	topo := NewTopology()
	m := topo.AddMachine("m", NonVolatile)
	x := topo.AddLoc("x", m)
	s := NewState(topo)
	s.SetCache(m, x, 7)
	s.SetMem(x, 3)
	out := s.String()
	for _, frag := range []string{"x=7", "x:3", "C0{"} {
		if !strings.Contains(out, frag) {
			t.Errorf("State.String() = %q missing %q", out, frag)
		}
	}
}

func TestVariantAndSetupStrings(t *testing.T) {
	if Base.String() != "CXL0" || PSN.String() != "CXL0-PSN" || LWB.String() != "CXL0-LWB" {
		t.Errorf("variant strings wrong")
	}
	for _, s := range Setups {
		if s.String() == "" || strings.HasPrefix(s.String(), "Setup(") {
			t.Errorf("setup %d has no name", int(s))
		}
	}
	if RoleHost.String() != "host" || RoleDevice.String() != "device" {
		t.Errorf("role strings wrong")
	}
}

func TestTauStepString(t *testing.T) {
	v := TauStep{From: 1, Loc: 2, ToMemory: true}
	h := TauStep{From: 0, Loc: 1}
	if !strings.Contains(v.String(), "C1→M") || !strings.Contains(h.String(), "C0→C") {
		t.Errorf("TauStep strings: %q, %q", v, h)
	}
}

// TestReadableAndCachedValue covers the read helpers.
func TestReadableAndCachedValue(t *testing.T) {
	topo := NewTopology()
	m1 := topo.AddMachine("a", NonVolatile)
	m2 := topo.AddMachine("b", NonVolatile)
	x := topo.AddLoc("x", m1)
	s := NewState(topo)
	s.SetMem(x, 4)
	if v := s.Readable(x); v != 4 {
		t.Errorf("Readable from memory = %d", v)
	}
	if _, ok := s.CachedValue(x); ok {
		t.Errorf("CachedValue on empty caches")
	}
	s.SetCache(m2, x, 9)
	if v := s.Readable(x); v != 9 {
		t.Errorf("Readable prefers cache: %d", v)
	}
	if v, ok := s.CachedValue(x); !ok || v != 9 {
		t.Errorf("CachedValue = %d, %v", v, ok)
	}
}
