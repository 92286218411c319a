package explore_test

import (
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/explore"
)

// ExampleAllows checks two of the paper's Figure 3 litmus tests: an
// unflushed RStore may be lost across the owner's crash, while an MStore
// may not.
func ExampleAllows() {
	topo := core.NewTopology()
	m1 := topo.AddMachine("machine1", core.NonVolatile)
	x := topo.AddLoc("x1", m1)

	lossy := []core.Label{core.RStoreL(m1, x, 1), core.CrashL(m1), core.LoadL(m1, x, 0)}
	safe := []core.Label{core.MStoreL(m1, x, 1), core.CrashL(m1), core.LoadL(m1, x, 0)}

	fmt.Println("RStore lost across crash allowed:", explore.Allows(topo, core.Base, lossy))
	fmt.Println("MStore lost across crash allowed:", explore.Allows(topo, core.Base, safe))

	// Output:
	// RStore lost across crash allowed: true
	// MStore lost across crash allowed: false
}

// ExampleExplore enumerates all outcomes of the paper's §6 motivating
// program — `x=1; r1=x; r2=x` on machine 1 with x owned by a crashable
// machine 2 — and reports whether the two reads can ever disagree.
func ExampleExplore() {
	topo := core.NewTopology()
	m1 := topo.AddMachine("M1", core.NonVolatile)
	m2 := topo.AddMachine("M2", core.NonVolatile)
	x := topo.AddLoc("x", m2)

	prog := explore.Program{
		Threads: []explore.Thread{{
			Machine: m1,
			NumRegs: 2,
			Instrs: []explore.Instr{
				{Kind: explore.IStore, Op: core.OpLStore, Loc: x, Src: explore.ConstOp(1)},
				{Kind: explore.ILoad, Loc: x, Dst: 0},
				{Kind: explore.ILoad, Loc: x, Dst: 1},
			},
		}},
		MaxCrashes: 1,
		Crashable:  []core.MachineID{m2},
	}

	disagree := false
	for _, o := range explore.Explore(topo, core.Base, prog) {
		if !o.Died[0] && o.Regs[0][0] != o.Regs[0][1] {
			disagree = true
		}
	}
	fmt.Println("assert(r1==r2) can fail:", disagree)

	// Output:
	// assert(r1==r2) can fail: true
}

// ExampleExplore_messagePassing asks which publish recipes keep message
// passing safe when the memory host may crash: a producer writes data=42
// then flag=1 to memory it does not own, a consumer reads flag then data,
// and the question is whether any interleaving shows flag=1 with data≠42.
// An LStore+RFlush pair is not crash-atomic: eviction can park the payload
// in the owner's dying cache before the flush, which then completes
// vacuously. MStore is the crash-atomic publish.
func ExampleExplore_messagePassing() {
	unsafe := func(dataOp, flagOp core.Op, flushData bool) bool {
		topo := core.NewTopology()
		producer := topo.AddMachine("producer", core.NonVolatile)
		host := topo.AddMachine("memhost", core.NonVolatile)
		consumer := topo.AddMachine("consumer", core.NonVolatile)
		data := topo.AddLoc("data", host)
		flag := topo.AddLoc("flag", host)

		publish := []explore.Instr{{Kind: explore.IStore, Op: dataOp, Loc: data, Src: explore.ConstOp(42)}}
		if flushData {
			publish = append(publish, explore.Instr{Kind: explore.IFlush, Op: core.OpRFlush, Loc: data})
		}
		publish = append(publish, explore.Instr{Kind: explore.IStore, Op: flagOp, Loc: flag, Src: explore.ConstOp(1)})
		prog := explore.Program{
			Threads: []explore.Thread{
				{Machine: producer, Instrs: publish},
				{Machine: consumer, NumRegs: 2, Instrs: []explore.Instr{
					{Kind: explore.ILoad, Loc: flag, Dst: 0},
					{Kind: explore.ILoad, Loc: data, Dst: 1},
				}},
			},
			MaxCrashes: 1,
			Crashable:  []core.MachineID{host},
		}
		for _, o := range explore.Explore(topo, core.Base, prog) {
			if !o.Died[1] && o.Regs[1][0] == 1 && o.Regs[1][1] != 42 {
				return true
			}
		}
		return false
	}
	fmt.Println("LStore data; LStore flag:              unsafe =", unsafe(core.OpLStore, core.OpLStore, false))
	fmt.Println("LStore data; RFlush data; LStore flag: unsafe =", unsafe(core.OpLStore, core.OpLStore, true))
	fmt.Println("MStore data; LStore flag:              unsafe =", unsafe(core.OpMStore, core.OpLStore, false))
	fmt.Println("MStore data; MStore flag:              unsafe =", unsafe(core.OpMStore, core.OpMStore, false))
	// Output:
	// LStore data; LStore flag:              unsafe = true
	// LStore data; RFlush data; LStore flag: unsafe = true
	// MStore data; LStore flag:              unsafe = false
	// MStore data; MStore flag:              unsafe = false
}
