package core

import "fmt"

// This file is the implementation of Figure 2: every labeled rule
// (ApplyInPlace), both propagation rules (ApplyTauInPlace) and the crash
// rule with its PSN variant (CrashInPlace), written once, as steps on the
// state they are given. The executable runtime (package memsim) holds one
// live state behind a lock and steps it directly; exploration code, which
// needs the state it stepped from afterwards, calls Apply, ApplyTau and
// Crash (semantics.go) — Clone, then the step here.
//
// The runtime does not enumerate TauSteps to take one either: it draws
// k < State.TauStepCount() and applies State.TauStepAt(k), the k-th step of
// that enumeration, which the state's occupancy index (occupancy.go) finds
// without visiting the cells. Every cache write goes through
// State.setCache, which keeps the index and takes and releases the row's
// pages (state.go), and every read of a cell through State.Cache; a step
// on a live state allocates nothing once its pages exist. A crash visits the
// lines the caches hold and the crashed machine's runs of locations
// (Topology.OwnerRuns), not every location.
//
// The reference these rules are held to is a second, plain implementation
// over a dense matrix that only the tests have (dense_test.go):
// TestInPlaceAgreesWithApply replays the same labels and τ steps into both
// and compares every answer of the state after each.

// Observed returns the value a Load of x by machine m observes in s under
// variant v, and false when the load is blocked. Base and PSN read the
// unique valid copy out of whichever cache holds it, else the owner's
// memory, and never block. Under LWB a load is served from m's own cache
// or, once no cache holds x, from memory: while only a peer caches x it is
// blocked until τ has written the copy back.
func (s *State) Observed(m MachineID, x LocID, v Variant) (Val, bool) {
	val, _, ok := s.observe(m, x, v)
	return val, ok
}

// observe is Observed, and whether the value came out of a cache.
func (s *State) observe(m MachineID, x LocID, v Variant) (val Val, cached, ok bool) {
	if v == LWB {
		if own := s.Cache(m, x); own != Bot {
			return own, true, true
		}
		return s.mem[x], false, s.NoCacheHolds(x)
	}
	if cv, held := s.CachedValue(x); held {
		return cv, true, true
	}
	return s.mem[x], false, true
}

// enabled is the premise of l's rule: whether the labeled transition l can
// be taken from s under variant v.
func enabled(s *State, l Label, v Variant) bool {
	switch l.Op {
	case OpLoad:
		// The label must name the value the variant lets l.M observe.
		got, ok := s.Observed(l.M, l.Loc, v)
		return ok && got == l.Val
	case OpLStore, OpRStore, OpMStore, OpCrash:
		return true
	case OpLFlush:
		return s.Cache(l.M, l.Loc) == Bot // blocks until τ drains the issuer's copy
	case OpRFlush:
		return s.NoCacheHolds(l.Loc) // blocks until τ drains every copy
	case OpRFlushRange:
		// The ranged flush generalizes RFlush to n consecutive locations:
		// it blocks until every copy of every line in [Loc, Loc+N) has
		// drained to its owner's memory. Like the per-line flushes, it is
		// variant-independent: Base, PSN and LWB differ in how copies come
		// to exist (loads, poisoning), not in how they drain.
		return l.N >= 1 && s.NoCacheHoldsRange(l.Loc, l.N)
	case OpGPF:
		return s.CachesEmpty() // blocks until all caches drain entirely
	case OpLRMW, OpRRMW, OpMRMW:
		// The read half observes the unique cached copy, or memory when no
		// cache holds the line, in every variant. A failed RMW (current
		// value ≠ Old) is not a transition here — the paper equates it with
		// a plain read, which callers express as OpLoad.
		return s.Readable(l.Loc) == l.Old
	default:
		panic(fmt.Sprintf("core: ApplyInPlace: unknown op %v", l.Op))
	}
}

// ApplyInPlace mutates s by the labeled transition l under variant v and
// reports whether l was enabled (s is unchanged when not). Every labeled
// transition is deterministic.
func ApplyInPlace(s *State, l Label, v Variant) bool {
	if l.Op == OpLoad {
		// One look at the caches serves the premise and the effect:
		// LOAD-from-C (Base, PSN) replicates the copy read into the
		// issuer's cache; LOAD-from-M, and both LWB rules, change nothing.
		val, cached, ok := s.observe(l.M, l.Loc, v)
		if !ok || val != l.Val {
			return false
		}
		if cached && v != LWB {
			s.setCache(l.M, l.Loc, val)
		}
		return true
	}
	if !enabled(s, l, v) {
		return false
	}
	stored := l.Val // by a store, or by the store half of an RMW
	if l.Op.IsRMW() {
		stored = l.New
	}
	switch l.Op {
	case OpLStore, OpLRMW:
		s.invalidate(l.Loc)
		s.setCache(l.M, l.Loc, stored)
	case OpRStore, OpRRMW:
		s.invalidate(l.Loc)
		s.setCache(s.topo.Owner(l.Loc), l.Loc, stored)
	case OpMStore, OpMRMW:
		s.invalidate(l.Loc)
		s.mem[l.Loc] = stored
	case OpLoad, OpLFlush, OpRFlush, OpRFlushRange, OpGPF:
		// A flush only waits: once enabled, it changes nothing. (A load was
		// stepped above.)
	case OpCrash:
		CrashInPlace(s, l.M, v)
	}
	return true
}

// ApplyTauInPlace mutates s by one silent propagation step, which must be
// enabled.
func ApplyTauInPlace(s *State, t TauStep) {
	v := s.Cache(t.From, t.Loc)
	if v == Bot {
		panic("core: ApplyTauInPlace: step not enabled")
	}
	if t.ToMemory {
		if s.topo.Owner(t.Loc) != t.From {
			panic("core: ApplyTauInPlace: vertical propagation from non-owner")
		}
		s.invalidate(t.Loc)
		s.mem[t.Loc] = v
	} else {
		s.setCache(t.From, t.Loc, Bot)
		s.setCache(s.topo.Owner(t.Loc), t.Loc, v)
	}
}

// CrashInPlace mutates s by the crash of machine m under variant v: C_m is
// wiped; M_m resets to zero iff volatile. Under PSN, every other cache
// additionally poisons (invalidates) all m-owned lines.
func CrashInPlace(s *State, m MachineID, v Variant) {
	s.rows[m].held.each(func(l LocID) { s.setCache(m, l, Bot) })
	if s.topo.Mem(m) == Volatile {
		s.topo.OwnerRuns(0, LocID(len(s.mem)), func(owner MachineID, lo, hi LocID) {
			if owner == m {
				clear(s.mem[lo:hi])
			}
		})
	}
	if v == PSN {
		for j := range s.rows {
			s.rows[j].held.each(func(l LocID) {
				if s.topo.Owner(l) == m {
					s.setCache(MachineID(j), l, Bot)
				}
			})
		}
	}
}
