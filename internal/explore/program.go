package explore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"cxl0/internal/core"
)

// Reg names a thread-local register. Registers are lost when the thread's
// machine crashes.
type Reg int

// InstrKind enumerates program instructions.
type InstrKind int

const (
	// ILoad reads Loc into Dst.
	ILoad InstrKind = iota
	// IStore writes Src to Loc using the store primitive in Op.
	IStore
	// IFlush performs the flush primitive in Op (OpLFlush or OpRFlush) on
	// Loc; it blocks until its precondition holds.
	IFlush
	// IGPF performs a Global Persistent Flush.
	IGPF
	// ICAS compare-and-swaps Loc from Old to New using the RMW kind in Op;
	// Dst receives 1 on success and 0 on failure. A failed CAS behaves as
	// a plain read (per §3.3 of the paper).
	ICAS
	// IFAA fetch-and-adds Delta to Loc using the RMW kind in Op; Dst
	// receives the previous value.
	IFAA
)

// Operand is either a constant or a register reference.
type Operand struct {
	IsReg bool
	Reg   Reg
	Const core.Val
}

// ConstOp returns a constant operand.
func ConstOp(v core.Val) Operand { return Operand{Const: v} }

// Instr is one program instruction.
type Instr struct {
	Kind  InstrKind
	Op    core.Op // store kind, flush kind, or RMW kind
	Loc   core.LocID
	Src   Operand // IStore: value to store
	Dst   Reg     // ILoad, ICAS, IFAA: result register
	Old   core.Val
	New   core.Val
	Delta core.Val
}

// Thread is a straight-line program running on one machine.
type Thread struct {
	Machine core.MachineID
	Instrs  []Instr
	NumRegs int
}

// Program is a set of threads plus a crash budget.
type Program struct {
	Threads []Thread
	// MaxCrashes bounds the number of crash events injected during
	// exploration.
	MaxCrashes int
	// Crashable lists machines allowed to crash; nil means all machines.
	Crashable []core.MachineID
}

// Outcome is a terminal result of a program execution: the final register
// file of every thread, or nil for threads whose machine crashed.
type Outcome struct {
	Regs [][]core.Val
	Died []bool
}

// Key returns a canonical encoding of the outcome.
func (o Outcome) Key() string {
	var b []byte
	for i := range o.Regs {
		if o.Died[i] {
			b = append(b, 'X')
			continue
		}
		for _, v := range o.Regs[i] {
			b = binary.AppendVarint(b, int64(v))
		}
		b = append(b, '|')
	}
	return string(b)
}

func (o Outcome) String() string {
	s := ""
	for i := range o.Regs {
		if i > 0 {
			s += " "
		}
		if o.Died[i] {
			s += fmt.Sprintf("T%d:dead", i)
			continue
		}
		s += fmt.Sprintf("T%d:%v", i, o.Regs[i])
	}
	return s
}

// maxProgramConfigs caps the explored configuration count.
const maxProgramConfigs = 1 << 22

type progConfig struct {
	st      *core.State
	pc      []int
	regs    [][]core.Val
	dead    []bool // per thread
	crashes int
}

func (c *progConfig) key() string {
	var b []byte
	b = append(b, c.st.Key()...)
	b = append(b, '#')
	for i := range c.pc {
		b = binary.AppendVarint(b, int64(c.pc[i]))
		if c.dead[i] {
			b = append(b, 'X')
		} else {
			for _, v := range c.regs[i] {
				b = binary.AppendVarint(b, int64(v))
			}
		}
	}
	b = binary.AppendVarint(b, int64(c.crashes))
	return string(b)
}

func (c *progConfig) clone() *progConfig {
	n := &progConfig{st: c.st, crashes: c.crashes}
	n.pc = append([]int(nil), c.pc...)
	n.dead = append([]bool(nil), c.dead...)
	n.regs = make([][]core.Val, len(c.regs))
	for i := range c.regs {
		n.regs[i] = append([]core.Val(nil), c.regs[i]...)
	}
	return n
}

// Explore exhaustively enumerates all interleavings of p's threads with τ
// propagation and up to MaxCrashes crash events under variant v, starting
// from the initial state of t. It returns the set of distinct terminal
// outcomes, sorted by key for determinism.
func Explore(t *core.Topology, v core.Variant, p Program) []Outcome {
	init := &progConfig{st: core.NewState(t)}
	init.pc = make([]int, len(p.Threads))
	init.dead = make([]bool, len(p.Threads))
	init.regs = make([][]core.Val, len(p.Threads))
	for i, th := range p.Threads {
		init.regs[i] = make([]core.Val, th.NumRegs)
	}

	crashable := p.Crashable
	if crashable == nil {
		for m := 0; m < t.NumMachines(); m++ {
			crashable = append(crashable, core.MachineID(m))
		}
	}

	seen := map[string]bool{}
	outcomes := map[string]Outcome{}
	stack := []*progConfig{init}

	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := c.key()
		if seen[k] {
			continue
		}
		if len(seen) >= maxProgramConfigs {
			panic("explore: program state space exceeded safety cap")
		}
		seen[k] = true

		if done(p, c) {
			o := Outcome{Regs: c.regs, Died: c.dead}
			outcomes[o.Key()] = o
			continue
		}

		// Thread steps.
		for i := range p.Threads {
			if c.dead[i] || c.pc[i] >= len(p.Threads[i].Instrs) {
				continue
			}
			stack = append(stack, stepThread(p, c, i, v)...)
		}
		// τ propagation.
		for _, ts := range core.TauSteps(c.st) {
			n := c.clone()
			n.st = core.ApplyTau(c.st, ts)
			stack = append(stack, n)
		}
		// Crashes.
		if c.crashes < p.MaxCrashes {
			for _, m := range crashable {
				n := c.clone()
				n.st = core.Crash(c.st, m, v)
				n.crashes++
				for i, th := range p.Threads {
					if th.Machine == m {
						n.dead[i] = true
					}
				}
				stack = append(stack, n)
			}
		}
	}

	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Outcome, 0, len(keys))
	for _, k := range keys {
		out = append(out, outcomes[k])
	}
	return out
}

func done(p Program, c *progConfig) bool {
	for i := range p.Threads {
		if !c.dead[i] && c.pc[i] < len(p.Threads[i].Instrs) {
			return false
		}
	}
	return true
}

func (o Operand) eval(regs []core.Val) core.Val {
	if o.IsReg {
		return regs[o.Reg]
	}
	return o.Const
}

// stepThread returns the configurations thread i's next instruction leads
// to from c under variant v — none while the instruction is blocked. The
// instruction is resolved to a label against c's state (what a load
// observes, whether a CAS compares equal) and the label applied under v.
func stepThread(p Program, c *progConfig, i int, v core.Variant) []*progConfig {
	ins, m := p.Threads[i].Instrs[c.pc[i]], p.Threads[i].Machine
	// step applies l; in each successor the thread has advanced and, when a
	// result is given, holds it in ins.Dst.
	step := func(l core.Label, result ...core.Val) []*progConfig {
		var out []*progConfig
		for _, st := range core.Apply(c.st, l, v) {
			n := c.clone()
			n.st = st
			n.pc[i]++
			if len(result) > 0 {
				n.regs[i][ins.Dst] = result[0]
			}
			out = append(out, n)
		}
		return out
	}

	switch ins.Kind {
	case ILoad, ICAS:
		if ins.Kind == ICAS && c.st.Readable(ins.Loc) == ins.Old {
			return step(core.RMWL(ins.Op, m, ins.Loc, ins.Old, ins.New), 1)
		}
		// A load, or a CAS that fails — a plain read (§3.3): the variant's
		// load, blocked under LWB while only a peer caches the line.
		val, ok := c.st.Observed(m, ins.Loc, v)
		if !ok {
			return nil
		}
		if ins.Kind == ICAS {
			return step(core.LoadL(m, ins.Loc, val), 0)
		}
		return step(core.LoadL(m, ins.Loc, val), val)
	case IStore:
		return step(core.Label{Op: ins.Op, M: m, Loc: ins.Loc, Val: ins.Src.eval(c.regs[i])})
	case IFlush:
		return step(core.Label{Op: ins.Op, M: m, Loc: ins.Loc})
	case IGPF:
		return step(core.GPFL(m))
	case IFAA:
		cur := c.st.Readable(ins.Loc)
		return step(core.RMWL(ins.Op, m, ins.Loc, cur, cur+ins.Delta), cur)
	}
	panic(fmt.Sprintf("explore: unknown instruction kind %d", ins.Kind))
}
