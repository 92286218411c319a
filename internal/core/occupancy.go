package core

import (
	"fmt"
	"math/bits"
)

// This file is the line-set type and the occupancy index a State builds
// from it: which cache cells hold a line. The τ rule lets any held line
// propagate, so picking the k-th enabled step is "select the k-th set bit
// in (machine, loc) order"; the index answers that, and "is anything
// cached at all", without walking the machines × locations cells. It also
// decides how long a cache page lives: a row keeps the page of 64 cells
// under an occupancy word exactly while that word is non-zero (state.go).
// State.setCache is the only writer of a cache cell and keeps the index in
// step; TauSteps stays the enumerating reference the index is tested
// against.
//
// The same type serves package memsim's clean-copy overlay, the other
// per-machine set of lines in the simulator.

// blockWords is how many 64-line bitset words one block count covers:
// select walks at most one set's block counts, then blockWords words,
// then the bits of one word.
const blockWords = 64

// LineSet is a set of locations of one topology, kept as a bitset with
// counts above it: the number of lines in the set, that number per block
// of blockWords words, and the words themselves — bit l%64 of word l/64 is
// set iff line l is in the set. Membership, insertion and removal cost the
// same whatever the set holds; the zero LineSet is an empty set over no
// locations.
type LineSet struct {
	total int
	block []uint64
	words []uint64
}

// NewLineSet returns the empty set over locations [0, locs).
func NewLineSet(locs int) LineSet {
	blocks, stride := lineSetLayout(locs)
	return lineSetOver(make([]uint64, stride), blocks)
}

// lineSetLayout returns, for a set over locs locations, the number of
// block counts and the length of the backing lineSetOver carves: the block
// counts, then the words.
func lineSetLayout(locs int) (blocks, stride int) {
	words := (locs + 63) / 64
	blocks = (words + blockWords - 1) / blockWords
	return blocks, blocks + words
}

// lineSetOver returns the set whose block counts and words are the two
// parts of backing, which must hold an empty set or a copy of one laid out
// the same way (the caller then restores total).
func lineSetOver(backing []uint64, blocks int) LineSet {
	return LineSet{block: backing[:blocks], words: backing[blocks:]}
}

// Has reports whether line l is in the set.
func (s *LineSet) Has(l LocID) bool {
	return s.words[int(l)>>6]&(1<<(uint(l)&63)) != 0
}

// Add puts line l in the set.
func (s *LineSet) Add(l LocID) {
	if !s.Has(l) {
		s.flip(l, 1)
	}
}

// Remove takes line l out of the set.
func (s *LineSet) Remove(l LocID) {
	if s.Has(l) {
		s.flip(l, -1)
	}
}

// RemoveRange takes every line of [lo, hi) out of the set.
func (s *LineSet) RemoveRange(lo, hi LocID) {
	if lo < 0 || int(hi) > len(s.words)<<6 {
		panic(fmt.Sprintf("core: LineSet.RemoveRange: [%d,%d) outside the set's locations", lo, hi))
	}
	for w := int(lo) >> 6; w<<6 < int(hi); w++ {
		mask := ^uint64(0)
		if first := w << 6; first < int(lo) {
			mask <<= uint(int(lo) - first)
		}
		if past := (w + 1) << 6; past > int(hi) {
			mask &= ^uint64(0) >> uint(past-int(hi))
		}
		if n := bits.OnesCount64(s.words[w] & mask); n > 0 {
			s.words[w] &^= mask
			s.block[w/blockWords] -= uint64(n)
			s.total -= n
		}
	}
}

// Clear empties the set.
func (s *LineSet) Clear() {
	clear(s.block)
	clear(s.words)
	s.total = 0
}

// flip toggles line l and moves the counts above it by d, +1 or -1.
func (s *LineSet) flip(l LocID, d int) {
	w := int(l) >> 6
	s.words[w] ^= 1 << (uint(l) & 63)
	s.block[w/blockWords] += uint64(d) // two's complement: -1 subtracts
	s.total += d
}

// nth returns the k-th line of the set in ascending order, 0 <= k < total.
func (s *LineSet) nth(k uint64) LocID {
	b := 0
	for ; k >= s.block[b]; b++ {
		k -= s.block[b]
	}
	w := b * blockWords
	for {
		n := uint64(bits.OnesCount64(s.words[w]))
		if k < n {
			break
		}
		k -= n
		w++
	}
	word := s.words[w]
	for ; k > 0; k-- {
		word &= word - 1
	}
	return LocID(w<<6 | bits.TrailingZeros64(word))
}

// each calls f on every line of the set in ascending order. f may remove
// the line it is handed.
func (s *LineSet) each(f func(LocID)) {
	for b, n := range s.block {
		if n == 0 {
			continue
		}
		lo := b * blockWords
		for w := lo; w < min(lo+blockWords, len(s.words)); w++ {
			for word := s.words[w]; word != 0; word &= word - 1 {
				f(LocID(w<<6 | bits.TrailingZeros64(word)))
			}
		}
	}
}

// DrainTau empties every cache: it hands take each enabled τ step,
// machine by machine and each machine's lines in ascending order, and
// walks again until nothing is cached. take must take the step it is
// handed (ApplyTauInPlace), which clears the source cell; a line that
// moves to a lower-numbered owner's cache is taken on the next walk.
// Lines drain independently and the drain draws no randomness, so it
// ends in the same state as taking TauStepAt(0) until TauStepCount() is
// 0, without a select through the block counts for every step.
func (s *State) DrainTau(take func(TauStep)) {
	for s.held > 0 {
		for m := range s.rows {
			from := MachineID(m)
			s.rows[m].held.each(func(l LocID) {
				take(TauStep{From: from, Loc: l, ToMemory: s.topo.Owner(l) == from})
			})
		}
	}
}

// TauStepCount returns len(TauSteps(s)) without enumerating them.
func (s *State) TauStepCount() int { return s.held }

// TauStepAt returns TauSteps(s)[k] without enumerating the rest; k must be
// in [0, TauStepCount()).
func (s *State) TauStepAt(k int) TauStep {
	if k < 0 || k >= s.held {
		panic("core: TauStepAt: index out of range")
	}
	for m := MachineID(0); ; m++ {
		o := &s.rows[m].held
		if k < o.total {
			l := o.nth(uint64(k))
			return TauStep{From: m, Loc: l, ToMemory: s.topo.Owner(l) == m}
		}
		k -= o.total
	}
}
