package core

import "fmt"

// This file provides destructive counterparts of Apply/ApplyTau/Crash for
// the executable runtime (package memsim): the runtime holds a single live
// state behind a lock and has no use for persistent snapshots, so mutating
// in place avoids cloning the state on every primitive. Exploration code
// must keep using the cloning API.
//
// The runtime does not enumerate TauSteps to take one either: it draws
// k < State.TauStepCount() and applies State.TauStepAt(k), the k-th step of
// that enumeration, which the state's occupancy index (occupancy.go) finds
// without visiting the cells. Every cache write of both APIs goes through
// State.setCache, which keeps the index and takes and releases the row's
// pages (state.go), and every read of a cell through State.Cache; a step
// on a live state allocates nothing once its pages exist. A crash visits the
// lines the caches hold and the crashed machine's runs of locations
// (Topology.OwnerRuns), not every location.
//
// TestInPlaceAgreesWithApply property-checks that both APIs define the same
// transition relation, and holds every state either produces to a dense
// mirror the same labels were replayed into (dense_test.go).

// ApplyInPlace mutates s by the labeled transition l under variant v and
// reports whether l was enabled (s is unchanged when not). For OpLoad under
// the Base/PSN variants the transition is deterministic, matching Apply's
// single successor.
func ApplyInPlace(s *State, l Label, v Variant) bool {
	switch l.Op {
	case OpLoad:
		return loadInPlace(s, l, v)
	case OpLStore:
		s.invalidate(l.Loc)
		s.setCache(l.M, l.Loc, l.Val)
		return true
	case OpRStore:
		k := s.topo.Owner(l.Loc)
		s.invalidate(l.Loc)
		s.setCache(k, l.Loc, l.Val)
		return true
	case OpMStore:
		s.invalidate(l.Loc)
		s.mem[l.Loc] = l.Val
		return true
	case OpLFlush:
		return s.Cache(l.M, l.Loc) == Bot
	case OpRFlush:
		return s.NoCacheHolds(l.Loc)
	case OpRFlushRange:
		return l.N >= 1 && s.NoCacheHoldsRange(l.Loc, l.N)
	case OpGPF:
		return s.CachesEmpty()
	case OpLRMW, OpRRMW, OpMRMW:
		return rmwInPlace(s, l)
	case OpCrash:
		CrashInPlace(s, l.M, v)
		return true
	default:
		panic(fmt.Sprintf("core: ApplyInPlace: unknown op %v", l.Op))
	}
}

func loadInPlace(s *State, l Label, v Variant) bool {
	if v == LWB {
		if own := s.Cache(l.M, l.Loc); own != Bot {
			return own == l.Val
		}
		if !s.NoCacheHolds(l.Loc) {
			return false
		}
		return s.mem[l.Loc] == l.Val
	}
	if cv, ok := s.CachedValue(l.Loc); ok {
		if cv != l.Val {
			return false
		}
		s.setCache(l.M, l.Loc, cv)
		return true
	}
	return s.mem[l.Loc] == l.Val
}

func rmwInPlace(s *State, l Label) bool {
	cur, cached := s.CachedValue(l.Loc)
	if !cached {
		cur = s.mem[l.Loc]
	}
	if cur != l.Old {
		return false
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
		return false // not an RMW label: no store half to apply
	}
	return ApplyInPlace(s, Label{Op: storeOp, M: l.M, Loc: l.Loc, Val: l.New}, Base)
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

// CrashInPlace mutates s by the crash of machine m under variant v.
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
