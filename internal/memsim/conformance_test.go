package memsim

import (
	"errors"
	"math/rand"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/explore"
)

// TestRuntimeConformsToExplorer validates the runtime against the model
// checker: for a fixed concurrent program with crash injection, every
// outcome the runtime produces under randomized scheduling must be in the
// exhaustively-enumerated outcome set of the explorer. (The runtime drives
// threads step-by-step from a single goroutine so schedules are
// reproducible.)
func TestRuntimeConformsToExplorer(t *testing.T) {
	build := func() (*core.Topology, explore.Program) {
		topo := core.NewTopology()
		mA := topo.AddMachine("A", core.NonVolatile)
		mB := topo.AddMachine("B", core.NonVolatile)
		x := topo.AddLoc("x", mA)
		y := topo.AddLoc("y", mB)

		prog := explore.Program{
			Threads: []explore.Thread{
				{Machine: mA, NumRegs: 2, Instrs: []explore.Instr{
					{Kind: explore.IStore, Op: core.OpLStore, Loc: y, Src: explore.ConstOp(1)},
					{Kind: explore.ILoad, Loc: x, Dst: 0},
					{Kind: explore.ICAS, Op: core.OpLRMW, Loc: x, Old: 0, New: 2, Dst: 1},
				}},
				{Machine: mB, NumRegs: 2, Instrs: []explore.Instr{
					{Kind: explore.IStore, Op: core.OpMStore, Loc: x, Src: explore.ConstOp(3)},
					{Kind: explore.ILoad, Loc: y, Dst: 0},
					{Kind: explore.IFlush, Op: core.OpRFlush, Loc: y},
					{Kind: explore.ILoad, Loc: y, Dst: 1},
				}},
			},
			MaxCrashes: 1,
			Crashable:  []core.MachineID{mB},
		}
		return topo, prog
	}

	topo, prog := build()
	allowed := map[string]bool{}
	for _, o := range explore.Explore(topo, core.Base, prog) {
		allowed[o.Key()] = true
	}
	if len(allowed) == 0 {
		t.Fatal("explorer produced no outcomes")
	}

	// Drive the same program through the runtime under many randomized
	// schedules (thread interleaving, eviction churn, crash placement).
	for seed := int64(0); seed < 400; seed++ {
		outcome := runScheduled(t, prog, []int{1, 1}, core.Base, seed)
		if !allowed[outcome.Key()] {
			t.Fatalf("seed %d: runtime outcome %v not reachable in the model", seed, outcome)
		}
	}
}

// runScheduled executes prog under variant on a fresh cluster of machines
// A and B with a random schedule derived from seed and returns the
// explorer-comparable outcome.
func runScheduled(t *testing.T, prog explore.Program, heaps []int, variant core.Variant, seed int64) explore.Outcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	// The cluster mirrors the program's topology: one heap word per
	// location, in declaration order.
	c := NewCluster([]MachineConfig{
		{Name: "A", Mem: core.NonVolatile, Heap: heaps[0]},
		{Name: "B", Mem: core.NonVolatile, Heap: heaps[1]},
	}, Config{Variant: variant, Seed: seed})

	type threadState struct {
		th   *Thread
		pc   int
		regs []core.Val
		dead bool
	}
	states := make([]*threadState, len(prog.Threads))
	for i, pt := range prog.Threads {
		th, err := c.NewThread(pt.Machine)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = &threadState{th: th, regs: make([]core.Val, pt.NumRegs)}
	}

	crashBudget := prog.MaxCrashes
	for {
		// Collect runnable threads.
		var runnable []int
		for i, st := range states {
			if !st.dead && st.pc < len(prog.Threads[i].Instrs) {
				runnable = append(runnable, i)
			}
		}
		if len(runnable) == 0 {
			break
		}
		// Random scheduler action: run a thread step, churn, or crash.
		switch k := rng.Intn(10); {
		case k == 0 && crashBudget > 0:
			m := prog.Crashable[rng.Intn(len(prog.Crashable))]
			c.Crash(m)
			c.Recover(m)
			crashBudget--
			for i, st := range states {
				if prog.Threads[i].Machine == m {
					st.dead = true
				}
			}
		case k <= 2:
			c.Churn(1)
		default:
			i := runnable[rng.Intn(len(runnable))]
			st := states[i]
			ins := prog.Threads[i].Instrs[st.pc]
			err := execInstr(st.th, ins, st.regs)
			if errors.Is(err, ErrCrashed) {
				st.dead = true
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			st.pc++
		}
	}

	out := explore.Outcome{
		Regs: make([][]core.Val, len(states)),
		Died: make([]bool, len(states)),
	}
	for i, st := range states {
		out.Died[i] = st.dead
		if !st.dead {
			out.Regs[i] = st.regs
		} else {
			out.Regs[i] = make([]core.Val, len(st.regs))
		}
	}
	return out
}

// execInstr runs one explorer instruction through the runtime thread API.
func execInstr(th *Thread, ins explore.Instr, regs []core.Val) error {
	switch ins.Kind {
	case explore.ILoad:
		v, err := th.Load(ins.Loc)
		if err != nil {
			return err
		}
		regs[ins.Dst] = v
		return nil
	case explore.IStore:
		v := ins.Src.Const
		if ins.Src.IsReg {
			v = regs[ins.Src.Reg]
		}
		switch ins.Op {
		case core.OpLStore:
			return th.LStore(ins.Loc, v)
		case core.OpRStore:
			return th.RStore(ins.Loc, v)
		default:
			return th.MStore(ins.Loc, v)
		}
	case explore.IFlush:
		if ins.Op == core.OpLFlush {
			return th.LFlush(ins.Loc)
		}
		return th.RFlush(ins.Loc)
	case explore.IGPF:
		return th.GPF()
	case explore.ICAS:
		ok, err := th.CAS(ins.Op, ins.Loc, ins.Old, ins.New)
		if err != nil {
			return err
		}
		if ok {
			regs[ins.Dst] = 1
		} else {
			regs[ins.Dst] = 0
		}
		return nil
	case explore.IFAA:
		prev, err := th.FAA(ins.Op, ins.Loc, ins.Delta)
		if err != nil {
			return err
		}
		regs[ins.Dst] = prev
		return nil
	}
	return nil
}

// TestRuntimeConformsUnderVariants repeats two smaller conformance checks
// under every variant, on one location x owned by A: a thread of B that
// stores and reloads x across a crash of A, and a CAS by A that fails
// while B may hold the only copy of x — a failed RMW is the variant's load
// (under LWB: write the peer's copy back, then read memory) — across a
// crash of B.
func TestRuntimeConformsUnderVariants(t *testing.T) {
	topo := core.NewTopology()
	mA := topo.AddMachine("A", core.NonVolatile)
	mB := topo.AddMachine("B", core.NonVolatile)
	x := topo.AddLoc("x", mA)

	progs := []struct {
		name string
		explore.Program
	}{
		{"store and reload", explore.Program{
			Threads: []explore.Thread{
				{Machine: mB, NumRegs: 2, Instrs: []explore.Instr{
					{Kind: explore.IStore, Op: core.OpLStore, Loc: x, Src: explore.ConstOp(1)},
					{Kind: explore.ILoad, Loc: x, Dst: 0},
					{Kind: explore.ILoad, Loc: x, Dst: 1},
				}},
			},
			MaxCrashes: 1,
			Crashable:  []core.MachineID{mA},
		}},
		{"failed CAS beside a peer's copy", explore.Program{
			Threads: []explore.Thread{
				{Machine: mB, NumRegs: 1, Instrs: []explore.Instr{
					{Kind: explore.IStore, Op: core.OpLStore, Loc: x, Src: explore.ConstOp(7)},
					{Kind: explore.ILoad, Loc: x, Dst: 0},
				}},
				{Machine: mA, NumRegs: 2, Instrs: []explore.Instr{
					{Kind: explore.ICAS, Op: core.OpLRMW, Loc: x, Old: 3, New: 9, Dst: 0},
					{Kind: explore.ILoad, Loc: x, Dst: 1},
				}},
			},
			MaxCrashes: 1,
			Crashable:  []core.MachineID{mB},
		}},
	}
	for _, p := range progs {
		name, prog := p.name, p.Program
		for _, variant := range core.Variants {
			allowed := map[string]bool{}
			for _, o := range explore.Explore(topo, variant, prog) {
				allowed[o.Key()] = true
			}
			reached := map[string]bool{}
			for seed := int64(0); seed < 400; seed++ {
				out := runScheduled(t, prog, []int{1, 0}, variant, seed)
				if !allowed[out.Key()] {
					t.Fatalf("%s, %v, seed %d: runtime outcome %v not in model set", name, variant, seed, out)
				}
				reached[out.Key()] = true
			}
			if len(reached) != len(allowed) {
				t.Errorf("%s, %v: 400 schedules reached %d of the model's %d outcomes", name, variant, len(reached), len(allowed))
			}
		}
	}
}
