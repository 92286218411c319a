package core

import (
	"fmt"
	"strings"
)

// Variant selects one of the paper's model flavours (§3.5).
type Variant int

const (
	// Base is plain CXL0 (Figure 2).
	Base Variant = iota
	// PSN is CXL0 with cache-line poisoning on crash: a crash of machine i
	// additionally invalidates i-owned lines in every other cache.
	PSN
	// LWB is CXL0 with implicit write-back on remote loads: loads are served
	// from the issuer's own cache, or from memory once no cache holds the
	// line; peers' caches are never read directly.
	LWB
)

func (v Variant) String() string {
	switch v {
	case Base:
		return "CXL0"
	case PSN:
		return "CXL0-PSN"
	case LWB:
		return "CXL0-LWB"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all model variants.
var Variants = []Variant{Base, PSN, LWB}

// ParseVariant converts a variant's short name — base, psn or lwb, as the
// litmus scripts and CLI flags spell them, matched case-insensitively —
// into a Variant.
func ParseVariant(name string) (Variant, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "base":
		return Base, nil
	case "psn":
		return PSN, nil
	case "lwb":
		return LWB, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want base, psn or lwb)", name)
}

// Apply returns the states reachable from s by performing exactly the
// labeled transition l under variant v, with no interleaved τ steps. The
// result is empty when l is not enabled (e.g. a Load whose expected value
// does not match, or a flush whose precondition does not hold yet).
//
// All rules of Figure 2 are implemented here; τ (silent propagation) is in
// TauSuccessors, since it carries no label.
func Apply(s *State, l Label, v Variant) []*State {
	switch l.Op {
	case OpLoad:
		return applyLoad(s, l, v)
	case OpLStore:
		n := s.Clone()
		n.invalidate(l.Loc)
		n.setCache(l.M, l.Loc, l.Val)
		return []*State{n}
	case OpRStore:
		k := s.topo.Owner(l.Loc)
		n := s.Clone()
		n.invalidate(l.Loc)
		n.setCache(k, l.Loc, l.Val)
		return []*State{n}
	case OpMStore:
		n := s.Clone()
		n.invalidate(l.Loc)
		n.mem[l.Loc] = l.Val
		return []*State{n}
	case OpLFlush:
		if s.Cache(l.M, l.Loc) != Bot {
			return nil // blocks until τ drains the issuer's copy
		}
		return []*State{s.Clone()}
	case OpRFlush:
		if !s.NoCacheHolds(l.Loc) {
			return nil // blocks until τ drains every copy
		}
		return []*State{s.Clone()}
	case OpRFlushRange:
		// The ranged flush generalizes RFlush to n consecutive locations:
		// it blocks until every copy of every line in [Loc, Loc+N) has
		// drained to its owner's memory. Like the per-line flushes, it is
		// variant-independent: Base, PSN and LWB differ in how copies come
		// to exist (loads, poisoning), not in how they drain.
		if l.N < 1 {
			return nil
		}
		if !s.NoCacheHoldsRange(l.Loc, l.N) {
			return nil // blocks until τ drains every copy of every line
		}
		return []*State{s.Clone()}
	case OpGPF:
		if !s.CachesEmpty() {
			return nil // blocks until all caches drain entirely
		}
		return []*State{s.Clone()}
	case OpLRMW, OpRRMW, OpMRMW:
		return applyRMW(s, l)
	case OpCrash:
		return []*State{Crash(s, l.M, v)}
	default:
		panic(fmt.Sprintf("core: Apply: unknown op %v", l.Op))
	}
}

func applyLoad(s *State, l Label, v Variant) []*State {
	switch v {
	case LWB:
		// LOAD-from-C(LWB): only the issuer's own cache can serve the load,
		// and doing so does not change the state.
		if own := s.Cache(l.M, l.Loc); own != Bot {
			if own != l.Val {
				return nil
			}
			return []*State{s.Clone()}
		}
		// Otherwise LOAD-from-M: requires every cache to have drained.
		if !s.NoCacheHolds(l.Loc) {
			return nil
		}
		if s.mem[l.Loc] != l.Val {
			return nil
		}
		return []*State{s.Clone()}
	default: // Base and PSN share the load rules.
		if cv, ok := s.CachedValue(l.Loc); ok {
			// LOAD-from-C: read the (unique) valid copy and replicate it
			// into the issuer's cache.
			if cv != l.Val {
				return nil
			}
			n := s.Clone()
			n.setCache(l.M, l.Loc, cv)
			return []*State{n}
		}
		// LOAD-from-M.
		if s.mem[l.Loc] != l.Val {
			return nil
		}
		return []*State{s.Clone()}
	}
}

// applyRMW implements the six RMW rules: the read half observes the unique
// cached copy, or memory when no cache holds the line; the write half
// behaves like the corresponding store. A failed RMW (current value ≠ Old)
// is not a transition here — the paper equates it with a plain read, which
// callers express as OpLoad.
func applyRMW(s *State, l Label) []*State {
	cur, cached := s.CachedValue(l.Loc)
	if !cached {
		cur = s.mem[l.Loc]
	}
	if cur != l.Old {
		return nil
	}
	var storeOp Op
	switch l.Op {
	case OpLRMW:
		storeOp = OpLStore
	case OpRRMW:
		storeOp = OpRStore
	case OpMRMW:
		storeOp = OpMStore
	default:
		return nil // not an RMW label: no store half, no successor state
	}
	return Apply(s, Label{Op: storeOp, M: l.M, Loc: l.Loc, Val: l.New}, Base)
}

// Crash returns the state after machine m crashes under variant v: C_m is
// wiped; M_m resets to zero iff volatile. Under PSN, every other cache
// additionally poisons (invalidates) all m-owned lines.
func Crash(s *State, m MachineID, v Variant) *State {
	n := s.Clone()
	for l := range n.mem {
		n.setCache(m, LocID(l), Bot)
	}
	s.topo.OwnerRuns(0, LocID(len(n.mem)), func(owner MachineID, lo, hi LocID) {
		if owner != m {
			return
		}
		if s.topo.Mem(m) == Volatile {
			clear(n.mem[lo:hi])
		}
		if v == PSN {
			for j := range n.rows {
				for l := lo; l < hi; l++ {
					n.setCache(MachineID(j), l, Bot)
				}
			}
		}
	})
	return n
}

// TauStep describes one silent propagation step.
type TauStep struct {
	// From is the machine whose cache gives up the line.
	From MachineID
	// Loc is the propagated location.
	Loc LocID
	// ToMemory is true for owner-cache→memory (vertical) propagation and
	// false for cache→owner-cache (horizontal) propagation.
	ToMemory bool
}

func (t TauStep) String() string {
	if t.ToMemory {
		return fmt.Sprintf("τ(C%d→M, loc%d)", t.From, t.Loc)
	}
	return fmt.Sprintf("τ(C%d→C, loc%d)", t.From, t.Loc)
}

// TauSteps enumerates the silent propagation steps enabled in s:
//
//   - Propagate-C-C: a non-owner cache holding x moves its copy to the
//     owner's cache (removing it locally).
//   - Propagate-C-M: the owner's cache holding x writes it back to the
//     owner's memory, invalidating x in every cache.
func TauSteps(s *State) []TauStep {
	var steps []TauStep
	for m := range s.rows {
		for w := range s.rows[m].page {
			for i, val := range s.lines(MachineID(m), w) {
				if val == Bot {
					continue
				}
				l := LocID(w*pageCells + i)
				steps = append(steps, TauStep{From: MachineID(m), Loc: l, ToMemory: s.topo.Owner(l) == MachineID(m)})
			}
		}
	}
	return steps
}

// ApplyTau performs one silent propagation step, which must be enabled.
func ApplyTau(s *State, t TauStep) *State {
	v := s.Cache(t.From, t.Loc)
	if v == Bot {
		panic("core: ApplyTau: step not enabled")
	}
	n := s.Clone()
	if t.ToMemory {
		if s.topo.Owner(t.Loc) != t.From {
			panic("core: ApplyTau: vertical propagation from non-owner")
		}
		n.invalidate(t.Loc)
		n.mem[t.Loc] = v
	} else {
		n.setCache(t.From, t.Loc, Bot)
		n.setCache(s.topo.Owner(t.Loc), t.Loc, v)
	}
	return n
}

// TauSuccessors returns the states reachable from s by exactly one τ step.
func TauSuccessors(s *State) []*State {
	steps := TauSteps(s)
	out := make([]*State, 0, len(steps))
	for _, st := range steps {
		out = append(out, ApplyTau(s, st))
	}
	return out
}
