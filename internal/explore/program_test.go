package explore

import (
	"testing"

	"cxl0/internal/core"
)

func TestAllowsBasicPersistence(t *testing.T) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	x := topo.AddLoc("x", m0)

	// An un-flushed LStore may be lost across a crash...
	lost := []core.Label{core.LStoreL(m0, x, 1), core.CrashL(m0), core.LoadL(m0, x, 0)}
	if !Allows(topo, core.Base, lost) {
		t.Errorf("un-flushed LStore should be losable across a crash")
	}
	// ...but may also survive if τ drained it in time.
	kept := []core.Label{core.LStoreL(m0, x, 1), core.CrashL(m0), core.LoadL(m0, x, 1)}
	if !Allows(topo, core.Base, kept) {
		t.Errorf("LStore should be able to survive via τ drain before the crash")
	}
	// An MStore can never be lost.
	mst := []core.Label{core.MStoreL(m0, x, 1), core.CrashL(m0), core.LoadL(m0, x, 0)}
	if Allows(topo, core.Base, mst) {
		t.Errorf("MStore lost across a crash")
	}
}

func TestAllowsGPFDrainsEverything(t *testing.T) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	x := topo.AddLoc("x", m0)
	y := topo.AddLoc("y", m1)

	trace := []core.Label{
		core.LStoreL(m0, x, 1),
		core.LStoreL(m0, y, 2),
		core.GPFL(m0),
		core.CrashL(m0), core.CrashL(m1),
		core.LoadL(m0, x, 1),
		core.LoadL(m0, y, 2),
	}
	if !Allows(topo, core.Base, trace) {
		t.Errorf("GPF-drained values did not persist")
	}
	lossy := append(append([]core.Label{}, trace[:4]...), core.LoadL(m0, x, 0))
	if Allows(topo, core.Base, lossy) {
		t.Errorf("value lost despite GPF before crash")
	}
}

func TestAllowsRMWTrace(t *testing.T) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	x := topo.AddLoc("x", m0)
	_ = m1

	trace := []core.Label{
		core.RMWL(core.OpLRMW, m1, x, 0, 1), // CAS 0->1 by non-owner
		core.RMWL(core.OpMRMW, m0, x, 1, 2), // M-RMW 1->2 by owner
		core.CrashL(m0),
		core.LoadL(m1, x, 2),
	}
	if !Allows(topo, core.Base, trace) {
		t.Errorf("M-RMW result should persist across owner crash")
	}
	bad := append(append([]core.Label{}, trace[:3]...), core.LoadL(m1, x, 1))
	if Allows(topo, core.Base, bad) {
		t.Errorf("stale value readable after persistent M-RMW")
	}
}

// motivatingTopo returns the §6 motivating example topology: the program
// runs on M1, x lives on M2 (non-volatile).
func motivatingTopo() (*core.Topology, core.MachineID, core.MachineID, core.LocID) {
	topo := core.NewTopology()
	m1 := topo.AddMachine("M1", core.NonVolatile)
	m2 := topo.AddMachine("M2", core.NonVolatile)
	x := topo.AddLoc("x", m2)
	return topo, m1, m2, x
}

// TestMotivatingExample reproduces the §6 litmus test: under CXL0 a remote
// machine's crash can make two successive reads of the same location
// disagree (x=1; r1=x; r2=x; assert r1==r2 fails), which is impossible in
// the full-system crash model.
func TestMotivatingExample(t *testing.T) {
	topo, m1, m2, x := motivatingTopo()

	prog := Program{
		Threads: []Thread{{
			Machine: m1,
			NumRegs: 2,
			Instrs: []Instr{
				{Kind: IStore, Op: core.OpLStore, Loc: x, Src: ConstOp(1)},
				{Kind: ILoad, Loc: x, Dst: 0},
				{Kind: ILoad, Loc: x, Dst: 1},
			},
		}},
		MaxCrashes: 1,
		Crashable:  []core.MachineID{m2},
	}
	outcomes := Explore(topo, core.Base, prog)

	var sawViolation, sawEqual bool
	for _, o := range outcomes {
		if o.Died[0] {
			continue
		}
		r1, r2 := o.Regs[0][0], o.Regs[0][1]
		if r1 != r2 {
			sawViolation = true
			if r1 != 1 || r2 != 0 {
				t.Errorf("unexpected violating outcome r1=%d r2=%d", r1, r2)
			}
		} else {
			sawEqual = true
		}
	}
	if !sawViolation {
		t.Errorf("assert(r1==r2) never violated; the motivating anomaly is missing")
	}
	if !sawEqual {
		t.Errorf("no non-violating outcome found")
	}
}

// TestMotivatingExampleRepaired shows the two repairs the paper discusses:
// an MStore, or an RFlush between the store and the reads, restore the
// assertion.
func TestMotivatingExampleRepaired(t *testing.T) {
	topo, m1, m2, x := motivatingTopo()

	repairs := map[string][]Instr{
		"MStore": {
			{Kind: IStore, Op: core.OpMStore, Loc: x, Src: ConstOp(1)},
			{Kind: ILoad, Loc: x, Dst: 0},
			{Kind: ILoad, Loc: x, Dst: 1},
		},
		"RFlush": {
			{Kind: IStore, Op: core.OpLStore, Loc: x, Src: ConstOp(1)},
			{Kind: IFlush, Op: core.OpRFlush, Loc: x},
			{Kind: ILoad, Loc: x, Dst: 0},
			{Kind: ILoad, Loc: x, Dst: 1},
		},
	}
	for name, instrs := range repairs {
		t.Run(name, func(t *testing.T) {
			prog := Program{
				Threads:    []Thread{{Machine: m1, NumRegs: 2, Instrs: instrs}},
				MaxCrashes: 1,
				Crashable:  []core.MachineID{m2},
			}
			for _, o := range Explore(topo, core.Base, prog) {
				if o.Died[0] {
					continue
				}
				if o.Regs[0][0] != o.Regs[0][1] {
					t.Errorf("assertion violated despite %s repair: %v", name, o)
				}
			}
		})
	}
}

// TestMotivatingExampleLFlushInsufficient confirms the paper's remark that
// an LFlush (or any flush that only evicts from M1's cache) does NOT repair
// the assertion: the value can still be lost inside M2.
func TestMotivatingExampleLFlushInsufficient(t *testing.T) {
	topo, m1, m2, x := motivatingTopo()
	prog := Program{
		Threads: []Thread{{
			Machine: m1,
			NumRegs: 2,
			Instrs: []Instr{
				{Kind: IStore, Op: core.OpLStore, Loc: x, Src: ConstOp(1)},
				{Kind: IFlush, Op: core.OpLFlush, Loc: x},
				{Kind: ILoad, Loc: x, Dst: 0},
				{Kind: ILoad, Loc: x, Dst: 1},
			},
		}},
		MaxCrashes: 1,
		Crashable:  []core.MachineID{m2},
	}
	violated := false
	for _, o := range Explore(topo, core.Base, prog) {
		if !o.Died[0] && o.Regs[0][0] != o.Regs[0][1] {
			violated = true
		}
	}
	if !violated {
		t.Errorf("LFlush unexpectedly repaired the motivating example")
	}
}

// TestExploreConcurrentCAS checks mutual exclusion of CAS across machines:
// two threads CAS x from 0 to distinct values; exactly one must win.
func TestExploreConcurrentCAS(t *testing.T) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	x := topo.AddLoc("x", m0)

	prog := Program{
		Threads: []Thread{
			{Machine: m0, NumRegs: 1, Instrs: []Instr{{Kind: ICAS, Op: core.OpLRMW, Loc: x, Old: 0, New: 1, Dst: 0}}},
			{Machine: m1, NumRegs: 1, Instrs: []Instr{{Kind: ICAS, Op: core.OpLRMW, Loc: x, Old: 0, New: 2, Dst: 0}}},
		},
	}
	outcomes := Explore(topo, core.Base, prog)
	if len(outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	for _, o := range outcomes {
		wins := o.Regs[0][0] + o.Regs[1][0]
		if wins != 1 {
			t.Errorf("CAS mutual exclusion violated: %v", o)
		}
	}
}

// TestExploreFAA checks that two concurrent FAAs always sum.
func TestExploreFAA(t *testing.T) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	x := topo.AddLoc("x", m0)

	prog := Program{
		Threads: []Thread{
			{Machine: m0, NumRegs: 2, Instrs: []Instr{
				{Kind: IFAA, Op: core.OpLRMW, Loc: x, Delta: 1, Dst: 0},
				{Kind: ILoad, Loc: x, Dst: 1},
			}},
			{Machine: m1, NumRegs: 1, Instrs: []Instr{
				{Kind: IFAA, Op: core.OpLRMW, Loc: x, Delta: 1, Dst: 0},
			}},
		},
	}
	for _, o := range Explore(topo, core.Base, prog) {
		// Previous values must be {0,1} in some order.
		prevs := []core.Val{o.Regs[0][0], o.Regs[1][0]}
		if !((prevs[0] == 0 && prevs[1] == 1) || (prevs[0] == 1 && prevs[1] == 0)) {
			t.Errorf("FAA previous values wrong: %v", o)
		}
		if o.Regs[0][1] < 1 || o.Regs[0][1] > 2 {
			t.Errorf("final read out of range: %v", o)
		}
	}
}

// TestExploreSequentiallyConsistentWithoutCrashes checks the paper's remark
// that without crashes CXL0 is sequentially consistent: a same-machine
// store-then-load always observes the stored value.
func TestExploreSequentiallyConsistentWithoutCrashes(t *testing.T) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	x := topo.AddLoc("x", m1)

	for _, storeOp := range []core.Op{core.OpLStore, core.OpRStore, core.OpMStore} {
		prog := Program{
			Threads: []Thread{{
				Machine: m0,
				NumRegs: 1,
				Instrs: []Instr{
					{Kind: IStore, Op: storeOp, Loc: x, Src: ConstOp(1)},
					{Kind: ILoad, Loc: x, Dst: 0},
				},
			}},
		}
		for _, o := range Explore(topo, core.Base, prog) {
			if o.Regs[0][0] != 1 {
				t.Errorf("%v: read-own-write violated without crashes: %v", storeOp, o)
			}
		}
	}
}

// TestExploreMessagePassingNeedsNoFence checks load-buffering-style message
// passing: with serialized execution order (the model's premise), a reader
// that observes the flag also observes the payload.
func TestExploreMessagePassing(t *testing.T) {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	data := topo.AddLoc("data", m0)
	flag := topo.AddLoc("flag", m0)

	prog := Program{
		Threads: []Thread{
			{Machine: m0, Instrs: []Instr{
				{Kind: IStore, Op: core.OpLStore, Loc: data, Src: ConstOp(42)},
				{Kind: IStore, Op: core.OpLStore, Loc: flag, Src: ConstOp(1)},
			}},
			{Machine: m1, NumRegs: 2, Instrs: []Instr{
				{Kind: ILoad, Loc: flag, Dst: 0},
				{Kind: ILoad, Loc: data, Dst: 1},
			}},
		},
	}
	for _, o := range Explore(topo, core.Base, prog) {
		if o.Regs[1][0] == 1 && o.Regs[1][1] != 42 {
			t.Errorf("observed flag without payload: %v", o)
		}
	}
}

// TestRMWReadHalfUnderLWB pins what an RMW observes under LWB. A CAS that
// succeeds reads the unique cached copy wherever it is, in every variant
// (§3.3's RMW rules do not vary): it steps at once beside a peer's copy.
// A CAS that fails is the variant's load, so under LWB it is blocked until
// τ has written the peer's copy back, exactly like an ILoad.
func TestRMWReadHalfUnderLWB(t *testing.T) {
	topo := core.NewTopology()
	mA := topo.AddMachine("A", core.NonVolatile)
	mB := topo.AddMachine("B", core.NonVolatile)
	x := topo.AddLoc("x", mA)

	cas := func(old core.Val) Program {
		return Program{Threads: []Thread{{Machine: mA, NumRegs: 1, Instrs: []Instr{
			{Kind: ICAS, Op: core.OpLRMW, Loc: x, Old: old, New: 9, Dst: 0},
		}}}}
	}
	beside := func() *progConfig { // B holds the only copy of x, 3
		st := core.NewState(topo)
		st.SetCache(mB, x, 3)
		return &progConfig{st: st, pc: []int{0}, regs: [][]core.Val{{0}}, dead: []bool{false}}
	}

	next := stepThread(cas(3), beside(), 0, core.LWB)
	if len(next) != 1 || next[0].regs[0][0] != 1 {
		t.Fatalf("CAS(3→9) beside a peer's copy of 3 under LWB: %d successors, want one that succeeded", len(next))
	}
	if st := next[0].st; st.Cache(mA, x) != 9 || st.Cache(mB, x) != core.Bot || st.Mem(x) != 0 {
		t.Errorf("after the CAS: %v, want 9 in A's cache only and memory untouched", st)
	}

	if next := stepThread(cas(4), beside(), 0, core.LWB); len(next) != 0 {
		t.Errorf("failed CAS beside a peer's copy under LWB stepped (%v); an LWB load is blocked there", next[0].st)
	}
	if next := stepThread(cas(4), beside(), 0, core.Base); len(next) != 1 || next[0].regs[0][0] != 0 || next[0].st.Cache(mA, x) != 3 {
		t.Errorf("failed CAS beside a peer's copy under Base: want one successor that read 3 into A's cache")
	}
	drained := beside()
	drained.st = core.ApplyTau(core.ApplyTau(drained.st, core.TauStep{From: mB, Loc: x}), core.TauStep{From: mA, Loc: x, ToMemory: true})
	if next := stepThread(cas(4), drained, 0, core.LWB); len(next) != 1 || next[0].regs[0][0] != 0 || !next[0].st.Equal(drained.st) {
		t.Errorf("failed CAS under LWB once the copy is in memory: want one successor, state unchanged")
	}
}
