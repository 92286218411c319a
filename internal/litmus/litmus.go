// Package litmus checks litmus tests against the CXL0 model. The corpus
// is the scripts under testdata/, in parse.go's format: the nine tests of
// Figure 3 (figure3.litmus) with the paper's Base-model verdicts, the
// variant-separating tests 10–12 of §3.5 (variants.litmus) with all three,
// the reproduction findings 101–110 (findings.litmus), and worked
// examples. Check re-derives every trace's verdicts by exhaustive trace
// exploration and holds them to the script's expect: lines. The package
// also holds the motivating program of §6.
package litmus

import (
	"cxl0/internal/core"
	"cxl0/internal/explore"
)

// Verdict is one trace's verdict under one variant, beside the verdict
// its expect: lines state for that variant, if any.
type Verdict struct {
	Variant  core.Variant
	Allowed  bool // the model admits the trace
	Stated   bool // the trace's expect: names the variant
	Want     bool // the stated verdict (true = allowed)
	Violated bool // stated, and not what the model derives
}

// Check derives every trace of s under each of core.Variants, in that
// order — verdicts[i][j] is s.Traces[i] under core.Variants[j] — and
// counts the stated verdicts the model contradicts. It is the one place a
// trace's verdicts are held to its expect: lines.
func Check(s *Script) (verdicts [][]Verdict, violated int) {
	verdicts = make([][]Verdict, len(s.Traces))
	for i, tr := range s.Traces {
		for _, v := range core.Variants {
			want, stated := tr.Expect[v]
			allowed := explore.Allows(s.Topo, v, tr.Labels)
			bad := stated && want != allowed
			if bad {
				violated++
			}
			verdicts[i] = append(verdicts[i], Verdict{v, allowed, stated, want, bad})
		}
	}
	return verdicts, violated
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
