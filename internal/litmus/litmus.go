// Package litmus encodes the paper's litmus tests: the nine tests of
// Figure 3 (base model), the three variant-separating tests 10–12 of §3.5,
// and the motivating example of §6. Each test carries the verdicts printed
// in the paper; the runner re-derives them by exhaustive trace exploration
// and reports agreement.
package litmus

import (
	"cxl0/internal/core"
	"cxl0/internal/explore"
)

// Test is one litmus test: a trace over a fixed topology plus the paper's
// verdict per model variant. A verdict of true means the trace is allowed.
type Test struct {
	ID    int
	Paper string // the trace as printed in the paper
	Note  string
	Topo  *core.Topology
	Trace []core.Label
	// Expected maps each variant to the paper's verdict. Tests 1–9 are
	// specified for Base only; 10–12 carry all three verdicts.
	Expected map[core.Variant]bool
}

// Run returns the verdict derived from the model for the given variant.
func (t *Test) Run(v core.Variant) bool {
	return explore.Allows(t.Topo, v, t.Trace)
}

// figure3Topo is the three-machine, all-NVM topology used by tests 1–9:
// x1 ∈ Loc_1, x2 ∈ Loc_2, x3 ∈ Loc_3, y1 ∈ Loc_1.
func figure3Topo() (t *core.Topology, x1, x2, x3, y1 core.LocID) {
	t = core.NewTopology()
	m1 := t.AddMachine("machine1", core.NonVolatile)
	m2 := t.AddMachine("machine2", core.NonVolatile)
	m3 := t.AddMachine("machine3", core.NonVolatile)
	x1 = t.AddLoc("x1", m1)
	x2 = t.AddLoc("x2", m2)
	x3 = t.AddLoc("x3", m3)
	y1 = t.AddLoc("y1", m1)
	return
}

// variantTopo is the two-machine topology of §3.5: machine1 has NVMM,
// machine2 has volatile memory; x1 ∈ Loc_1.
func variantTopo() (t *core.Topology, x1 core.LocID) {
	t = core.NewTopology()
	m1 := t.AddMachine("machine1", core.NonVolatile)
	t.AddMachine("machine2", core.Volatile)
	x1 = t.AddLoc("x1", m1)
	return
}

const (
	m1 = core.MachineID(0)
	m2 = core.MachineID(1)
	m3 = core.MachineID(2)
)

// Figure3 returns tests 1–9 with the paper's Base-model verdicts.
func Figure3() []*Test {
	topo, x1, x2, x3, y1 := figure3Topo()
	base := func(ok bool) map[core.Variant]bool { return map[core.Variant]bool{core.Base: ok} }
	return []*Test{
		{
			ID: 1, Topo: topo, Expected: base(true),
			Paper: "RStore1(x1,1); E1; Load1(x1,0)",
			Note:  "an RStore may be lost if it has not propagated to persistence",
			Trace: []core.Label{core.RStoreL(m1, x1, 1), core.CrashL(m1), core.LoadL(m1, x1, 0)},
		},
		{
			ID: 2, Topo: topo, Expected: base(false),
			Paper: "MStore1(x1,1); E1; Load1(x1,0)",
			Note:  "MStore persists before returning",
			Trace: []core.Label{core.MStoreL(m1, x1, 1), core.CrashL(m1), core.LoadL(m1, x1, 0)},
		},
		{
			ID: 3, Topo: topo, Expected: base(false),
			Paper: "LStore1(x1,1); LFlush1(x1); E1; Load1(x1,0)",
			Note:  "an owner's LFlush forces propagation to its persistent memory",
			Trace: []core.Label{core.LStoreL(m1, x1, 1), core.LFlushL(m1, x1), core.CrashL(m1), core.LoadL(m1, x1, 0)},
		},
		{
			ID: 4, Topo: topo, Expected: base(true),
			Paper: "LStore1(x2,1); LFlush1(x2); E2; Load1(x2,0)",
			Note:  "a non-owner's LFlush only reaches the remote cache, which the crash destroys",
			Trace: []core.Label{core.LStoreL(m1, x2, 1), core.LFlushL(m1, x2), core.CrashL(m2), core.LoadL(m1, x2, 0)},
		},
		{
			ID: 5, Topo: topo, Expected: base(false),
			Paper: "LStore1(x2,1); RFlush1(x2); E2; Load1(x2,0)",
			Note:  "RFlush forces propagation into the remote persistent memory",
			Trace: []core.Label{core.LStoreL(m1, x2, 1), core.RFlushL(m1, x2), core.CrashL(m2), core.LoadL(m1, x2, 0)},
		},
		{
			ID: 6, Topo: topo, Expected: base(false),
			Paper: "LStore1(x3,1); Load2(x3,1); E1; Load2(x3,0)",
			Note:  "loading copies the value into the reader's cache, protecting it from the writer's crash",
			Trace: []core.Label{core.LStoreL(m1, x3, 1), core.LoadL(m2, x3, 1), core.CrashL(m1), core.LoadL(m2, x3, 0)},
		},
		{
			ID: 7, Topo: topo, Expected: base(false),
			Paper: "LStore1(x3,1); Load2(x3,1); LFlush2(x3); E1; E2; Load2(x3,0)",
			Note:  "machine2's flush pushes the copy to machine3's cache, surviving both crashes",
			Trace: []core.Label{
				core.LStoreL(m1, x3, 1), core.LoadL(m2, x3, 1), core.LFlushL(m2, x3),
				core.CrashL(m1), core.CrashL(m2), core.LoadL(m2, x3, 0),
			},
		},
		{
			ID: 8, Topo: topo, Expected: base(true),
			Paper: "RStore1(x2,1); RStore2(y1,x2); E2; Load1(y1,1); Load1(x2,0)",
			Note:  "a later operation can persist while an earlier observed value is lost",
			Trace: []core.Label{
				core.RStoreL(m1, x2, 1),
				core.LoadL(m2, x2, 1), core.RStoreL(m2, y1, 1), // RStore2(y1,x2) shorthand
				core.CrashL(m2),
				core.LoadL(m1, y1, 1), core.LoadL(m1, x2, 0),
			},
		},
		{
			ID: 9, Topo: topo, Expected: base(false),
			Paper: "MStore1(x2,1); RStore2(y1,x2); E2; Load1(y1,1); Load1(x2,0)",
			Note:  "MStore for the first write forbids the inconsistent recovery",
			Trace: []core.Label{
				core.MStoreL(m1, x2, 1),
				core.LoadL(m2, x2, 1), core.RStoreL(m2, y1, 1),
				core.CrashL(m2),
				core.LoadL(m1, y1, 1), core.LoadL(m1, x2, 0),
			},
		},
	}
}

// VariantTests returns tests 10–12 with the paper's (CXL0, CXL0-LWB,
// CXL0-PSN) verdict triples.
func VariantTests() []*Test {
	topo, x1 := variantTopo()
	triple := func(base, lwb, psn bool) map[core.Variant]bool {
		return map[core.Variant]bool{core.Base: base, core.LWB: lwb, core.PSN: psn}
	}
	return []*Test{
		{
			ID: 10, Topo: topo, Expected: triple(true, false, true),
			Paper: "RStore2(x1,1); Load2(x1,1); E1; Load2(x1,0)",
			Note:  "LWB forces the remote load to persist the line first",
			Trace: []core.Label{core.RStoreL(m2, x1, 1), core.LoadL(m2, x1, 1), core.CrashL(m1), core.LoadL(m2, x1, 0)},
		},
		{
			ID: 11, Topo: topo, Expected: triple(true, false, true),
			Paper: "LStore1(x1,1); Load2(x1,1); E1; Load1(x1,0)",
			Note:  "same as test 10 with the initial store issued by machine1",
			Trace: []core.Label{core.LStoreL(m1, x1, 1), core.LoadL(m2, x1, 1), core.CrashL(m1), core.LoadL(m1, x1, 0)},
		},
		{
			ID: 12, Topo: topo, Expected: triple(true, true, false),
			Paper: "LStore2(x1,1); E1; Load1(x1,1); E1; Load2(x1,0)",
			Note:  "poisoning prevents inconsistencies across consecutive crashes",
			Trace: []core.Label{
				core.LStoreL(m2, x1, 1), core.CrashL(m1), core.LoadL(m1, x1, 1),
				core.CrashL(m1), core.LoadL(m2, x1, 0),
			},
		},
	}
}

// Result pairs a test with derived and expected verdicts for one variant.
type Result struct {
	Test     *Test
	Variant  core.Variant
	Got      bool
	Expected bool
}

// Agrees reports whether the model reproduced the paper's verdict.
func (r Result) Agrees() bool { return r.Got == r.Expected }

// RunAll evaluates every test in the given set under every variant it
// specifies an expectation for.
func RunAll(tests []*Test) []Result {
	var out []Result
	for _, t := range tests {
		for _, v := range core.Variants {
			want, ok := t.Expected[v]
			if !ok {
				continue
			}
			out = append(out, Result{Test: t, Variant: v, Got: t.Run(v), Expected: want})
		}
	}
	return out
}

// Mark renders a verdict in the paper's ✔/✗ notation.
func Mark(allowed bool) string {
	if allowed {
		return "✔"
	}
	return "✗"
}

// MotivatingProgram returns the §6 motivating example as an explorable
// program: x lives on M2; M1 runs `x=1; r1=x; r2=x` with one possible M2
// crash. storeOp selects the store primitive for `x=1`, and withRFlush
// inserts an RFlush after the store.
func MotivatingProgram(storeOp core.Op, withRFlush bool) (*core.Topology, explore.Program) {
	topo := core.NewTopology()
	mm1 := topo.AddMachine("M1", core.NonVolatile)
	mm2 := topo.AddMachine("M2", core.NonVolatile)
	x := topo.AddLoc("x", mm2)

	instrs := []explore.Instr{{Kind: explore.IStore, Op: storeOp, Loc: x, Src: explore.ConstOp(1)}}
	if withRFlush {
		instrs = append(instrs, explore.Instr{Kind: explore.IFlush, Op: core.OpRFlush, Loc: x})
	}
	instrs = append(instrs,
		explore.Instr{Kind: explore.ILoad, Loc: x, Dst: 0},
		explore.Instr{Kind: explore.ILoad, Loc: x, Dst: 1},
	)
	return topo, explore.Program{
		Threads:    []explore.Thread{{Machine: mm1, NumRegs: 2, Instrs: instrs}},
		MaxCrashes: 1,
		Crashable:  []core.MachineID{mm2},
	}
}

// MotivatingAssertionHolds explores the motivating program and reports
// whether assert(r1==r2) holds in every surviving outcome.
func MotivatingAssertionHolds(storeOp core.Op, withRFlush bool) bool {
	topo, prog := MotivatingProgram(storeOp, withRFlush)
	for _, o := range explore.Explore(topo, core.Base, prog) {
		if !o.Died[0] && o.Regs[0][0] != o.Regs[0][1] {
			return false
		}
	}
	return true
}
