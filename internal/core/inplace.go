package core

import (
	"fmt"
	"math/bits"
)

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
// without visiting the cells. It takes every τ step as a word step
// (ApplyTauWordInPlace): the lines of one machine's occupancy word and one
// owner's run at once, a one-bit word for a single line. It takes a
// record's plain stores the same way (ApplyStoreWordInPlace): the stores
// of one machine to the lines of one occupancy word and one owner's run
// that no eviction draw separates, as one step. Every cache
// write goes through State.setCache (a value), clearWord (⊥) or moveWord
// (a word step's move), which keep the index and take and release the
// row's pages (state.go), and every read of a cell through State.Cache.
// Every memory write goes through setMem, writeBack (a word step's
// write-back) or clearMem (a volatile crash's reset), which take and
// release memory's pages, and every read through State.Mem. A step on a
// live state allocates nothing once its pages exist. A crash
// wipes the crashed machine's row a word at a time and visits its runs of
// locations (Topology.OwnerRuns), not every location.
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
		return s.Mem(x), false, s.NoCacheHolds(x)
	}
	if cv, held := s.CachedValue(x); held {
		return cv, true, true
	}
	return s.Mem(x), false, true
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
		s.setMem(l.Loc, stored)
	case OpLoad, OpLFlush, OpRFlush, OpRFlushRange, OpGPF:
		// A flush only waits: once enabled, it changes nothing. (A load was
		// stepped above.)
	case OpCrash:
		CrashInPlace(s, l.M, v)
	}
	return true
}

// ApplyTauInPlace mutates s by one silent propagation step, which must be
// enabled. It is the rule of one line, as the paper writes it; the
// runtime takes τ a word at a time through ApplyTauWordInPlace, which is
// held to this.
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
		s.setMem(t.Loc, v)
	} else {
		s.setCache(t.From, t.Loc, Bot)
		s.setCache(s.topo.Owner(t.Loc), t.Loc, v)
	}
}

// ApplyTauWordInPlace mutates s by the τ steps of the lines t names, which
// must all be cached by t.From and owned by one machine, and which
// t.ToMemory must send to memory iff t.From owns them: it ends where
// ApplyTauInPlace over each of those lines would. A write-back copies the
// lines to memory and clears them from every row the holder mask names,
// one popcount per row; a move copies them to the owner's page and clears
// them from t.From's.
func ApplyTauWordInPlace(s *State, t TauWord) {
	if t.Mask == 0 || t.Mask&^s.rows[t.From].held.words[t.Word] != 0 {
		panic("core: ApplyTauWordInPlace: step not enabled")
	}
	first := t.First()
	owner, past := s.topo.OwnerThrough(first)
	if last := t.Word<<6 | (63 - bits.LeadingZeros64(t.Mask)); last >= int(past) {
		panic("core: ApplyTauWordInPlace: the lines have more than one owner")
	}
	if t.ToMemory != (owner == t.From) {
		panic("core: ApplyTauWordInPlace: ToMemory must say whether the source owns the lines")
	}
	if !t.ToMemory {
		s.moveWord(t.From, owner, t.Word, t.Mask)
		return
	}
	s.writeBack(t.From, t.Word, t.Mask)
	s.invalidateWord(t.Word, t.Mask)
}

// writeBack copies the lines of occupancy word w that mask names from
// owner's cache to memory. A word of memory without a page takes one only
// for a value other than 0, as setMem does, and then takes owner's own page
// when mask is every line the row holds under w — the row would give it
// back as the lines leave — with the row's other cells, stale ⊥, set to
// memory's 0: the page changes hands, as in a horizontal move (moveWord).
func (s *State) writeBack(owner MachineID, w int, mask uint64) {
	r := &s.rows[owner]
	src, dst := r.page[w], s.memPage[w]
	if dst == s.zeroPage() {
		nonzero := false
		for word := mask; word != 0 && !nonzero; word &= word - 1 {
			nonzero = s.cells[int(src)+bits.TrailingZeros64(word)] != 0
		}
		if !nonzero {
			return
		}
		if mask == r.held.words[w] {
			s.held -= r.held.RemoveWord(w, mask)
			r.page[w] = 0
			s.holders.Drop(owner, LocID(w<<6))
			var vals [pageCells]Val
			page := s.cells[src : int(src)+s.pageLen]
			copy(vals[:], page)
			clear(page)
			for word := mask; word != 0; word &= word - 1 {
				i := bits.TrailingZeros64(word)
				page[i] = vals[i]
			}
			s.memPage[w] = src
			return
		}
		dst = s.takePage(dst)
		s.memPage[w] = dst
	}
	for word := mask; word != 0; word &= word - 1 {
		i := bits.TrailingZeros64(word)
		s.cells[int(dst)+i] = s.cells[int(src)+i]
	}
}

// ApplyStoreWordInPlace mutates s by the stores op (OpLStore, OpRStore or
// OpMStore) of machine m to the lines of occupancy word w that mask names,
// which must all be owned by one machine: vals holds one value per line,
// in ascending order of the lines. It ends where ApplyInPlace over each
// of those stores, in ascending order, would: the lines are cleared from
// every row the holder mask names, one masked clearWord per row, then set
// in the issuer's cache (LStore) or the owner's (RStore), or written to
// memory (MStore). The row that receives a cache store is overwritten,
// not cleared first: clearing could hand its page back only for setCache
// to take a page again and fill it with ⊥.
func ApplyStoreWordInPlace(s *State, op Op, m MachineID, w int, mask uint64, vals []Val) {
	if mask == 0 || len(vals) != bits.OnesCount64(mask) {
		panic("core: ApplyStoreWordInPlace: the mask must name one line per value")
	}
	first := LocID(w<<6 | bits.TrailingZeros64(mask))
	owner, past := s.topo.OwnerThrough(first)
	if last := w<<6 | (63 - bits.LeadingZeros64(mask)); last >= int(past) {
		panic("core: ApplyStoreWordInPlace: the lines have more than one owner")
	}
	holder := m
	switch op {
	case OpLStore, OpMStore:
	case OpRStore:
		holder = owner
	default:
		panic(fmt.Sprintf("core: ApplyStoreWordInPlace: %v is not a store", op))
	}
	for h := range s.holders.Machines(LocID(w << 6)) {
		if h != holder || op == OpMStore {
			s.clearWord(h, w, mask)
		}
	}
	for i, word := 0, mask; word != 0; i, word = i+1, word&(word-1) {
		l := LocID(w<<6 | bits.TrailingZeros64(word))
		if op == OpMStore {
			s.setMem(l, vals[i])
		} else {
			s.setCache(holder, l, vals[i])
		}
	}
}

// CrashInPlace mutates s by the crash of machine m under variant v: C_m is
// wiped, a word at a time; M_m resets to zero iff volatile. Under PSN,
// every other cache additionally poisons (invalidates) all m-owned lines:
// each word of m's runs is cleared from the rows its holder mask names.
func CrashInPlace(s *State, m MachineID, v Variant) {
	s.rows[m].held.eachWord(func(w int, word uint64) { s.clearWord(m, w, word) })
	volatile := s.topo.Mem(m) == Volatile
	if !volatile && v != PSN {
		return
	}
	s.topo.OwnerRuns(0, LocID(s.locs), func(owner MachineID, lo, hi LocID) {
		if owner != m {
			return
		}
		for w, mask := range WordsOf(lo, hi) {
			if volatile {
				s.clearMem(w, mask)
			}
			if v == PSN {
				s.invalidateWord(w, mask)
			}
		}
	})
}
