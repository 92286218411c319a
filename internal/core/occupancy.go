package core

import (
	"fmt"
	"iter"
	"math/bits"
)

// This file is the line-set type and the occupancy index a State builds
// from it: which cache cells hold a line. The τ rule lets any held line
// propagate, so picking the k-th enabled step is "select the k-th set bit
// in (machine, loc) order"; the index answers that, and "is anything
// cached at all", without walking the machines × locations cells. It also
// decides how long a cache page lives: a row keeps the page of 64 cells
// under an occupancy word exactly while that word is non-zero (state.go).
//
// The drains work a word at a time too. The τ steps of one machine's
// lines of one word and one owner's run commute, so DrainTau and
// DrainRange hand them over as one TauWord — the lines as a mask — and
// ApplyTauWordInPlace takes it with one popcount per row it touches.
// ApplyTauInPlace stays the rule of one line the word step is held to.
//
// Above the rows sits the holder mask, a MachineMask: per occupancy word,
// the machines whose row holds a page for it. It answers "which machines
// cache line l" — what a store's invalidation, a flush's drain and a
// load's lookup ask — at the cost of the holders, not of the machines.
// State.setCache, clearWord and moveWord are the only writers of a cache
// cell and keep the index and the mask in step; TauSteps stays the enumerating reference both are
// tested against. Only this file reads the mask's layout: everything else
// asks MachineMask.Has or ranges over MachineMask.Machines.
//
// The same two types serve package memsim's clean-copy overlay, the other
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
func (s *LineSet) Add(l LocID) { s.AddWord(LineWord(l)) }

// Remove takes line l out of the set.
func (s *LineSet) Remove(l LocID) { s.RemoveWord(LineWord(l)) }

// AddWord puts the lines of occupancy word w whose bits mask sets in the
// set, and returns how many of them were not in it.
func (s *LineSet) AddWord(w int, mask uint64) int {
	n := bits.OnesCount64(mask &^ s.words[w])
	s.words[w] |= mask
	s.block[w/blockWords] += uint64(n)
	s.total += n
	return n
}

// RemoveWord takes the lines of occupancy word w whose bits mask sets out
// of the set, and returns how many of them were in it.
func (s *LineSet) RemoveWord(w int, mask uint64) int {
	n := bits.OnesCount64(mask & s.words[w])
	s.words[w] &^= mask
	s.block[w/blockWords] -= uint64(n)
	s.total -= n
	return n
}

// Word returns occupancy word w of the set: bit i is set iff line w*64+i
// is in it.
func (s *LineSet) Word(w int) uint64 { return s.words[w] }

// RemoveRange takes every line of [lo, hi) out of the set.
func (s *LineSet) RemoveRange(lo, hi LocID) {
	if lo < 0 || int(hi) > len(s.words)<<6 {
		panic(fmt.Sprintf("core: LineSet.RemoveRange: [%d,%d) outside the set's locations", lo, hi))
	}
	for w, mask := range WordsOf(lo, hi) {
		s.RemoveWord(w, mask)
	}
}

// LineWord returns line l's occupancy word and l's bit in it.
func LineWord(l LocID) (w int, bit uint64) { return int(l) >> 6, 1 << (uint(l) & 63) }

// WordsOf returns, in ascending order, each occupancy word the lines of
// [lo, hi) meet, with the bits of the word that stand for them.
func WordsOf(lo, hi LocID) iter.Seq2[int, uint64] {
	return func(yield func(int, uint64) bool) {
		for w := int(lo) >> 6; w<<6 < int(hi); w++ {
			if !yield(w, rangeBits(w, lo, hi)) {
				return
			}
		}
	}
}

// rangeBits returns the bits of occupancy word w that stand for lines of
// [lo, hi); w must be a word the range meets.
func rangeBits(w int, lo, hi LocID) uint64 {
	mask := ^uint64(0)
	if first := w << 6; first < int(lo) {
		mask <<= uint(int(lo) - first)
	}
	if past := (w + 1) << 6; past > int(hi) {
		mask &= ^uint64(0) >> uint(past-int(hi))
	}
	return mask
}

// Clear empties the set.
func (s *LineSet) Clear() {
	clear(s.block)
	clear(s.words)
	s.total = 0
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

// eachWord calls f on every non-zero occupancy word of the set in
// ascending order, with the word as it is when the walk reaches it. f may
// remove lines of the word it is handed.
func (s *LineSet) eachWord(f func(w int, word uint64)) {
	for b, n := range s.block {
		if n == 0 {
			continue
		}
		lo := b * blockWords
		for w := lo; w < min(lo+blockWords, len(s.words)); w++ {
			if word := s.words[w]; word != 0 {
				f(w, word)
			}
		}
	}
}

// TauWord is the τ steps of some of one machine's lines of one occupancy
// word, all of one owner's run, taken as one step: Mask names the lines
// (bit i stands for line Word*64+i), From gives them up, and ToMemory says
// whether they go to memory (From owns them) or to their owner's cache.
// The τ rule moves each line on its own, so the steps of a word's lines
// commute, and ApplyTauWordInPlace ends in the state their
// ApplyTauInPlace steps would, in any order.
type TauWord struct {
	From     MachineID
	Word     int
	Mask     uint64
	ToMemory bool
}

// AsWord returns the word step of the single line t propagates.
func (t TauStep) AsWord() TauWord {
	w, bit := LineWord(t.Loc)
	return TauWord{From: t.From, Word: w, Mask: bit, ToMemory: t.ToMemory}
}

// First returns the lowest line t propagates.
func (t TauWord) First() LocID { return LocID(t.Word<<6 | bits.TrailingZeros64(t.Mask)) }

func (t TauWord) String() string {
	to := "C"
	if t.ToMemory {
		to = "M"
	}
	return fmt.Sprintf("τ(C%d→%s, word%d %#x)", t.From, to, t.Word, t.Mask)
}

// DrainTau empties every cache: it hands take each enabled τ step, as one
// word step per machine, occupancy word and owner run, machine by machine
// and each machine's words in ascending order, and walks again until
// nothing is cached. take must take the step it is handed
// (ApplyTauWordInPlace), which clears the source lines; a line that moves
// to a lower-numbered owner's cache is taken on the next walk. Lines drain
// independently and the drain draws no randomness, so it ends in the same
// state as taking TauStepAt(0) until TauStepCount() is 0, without a select
// through the block counts for every step.
func (s *State) DrainTau(take func(TauWord)) {
	for s.held > 0 {
		for m := range s.rows {
			from := MachineID(m)
			s.rows[m].held.eachWord(func(w int, word uint64) {
				for word != 0 {
					owner, past := s.topo.OwnerThrough(LocID(w<<6 | bits.TrailingZeros64(word)))
					mask := word & rangeBits(w, LocID(w<<6), past)
					word &^= mask
					take(TauWord{From: from, Word: w, Mask: mask, ToMemory: owner == from})
				}
			})
		}
	}
}

// DrainRange is DrainTau restricted to the lines of [lo, hi): it hands
// take, which must take it, every τ step that empties the caches of those
// lines, and no other. It works a stretch of one owner's lines and an
// occupancy word at a time, over the rows the holder mask names: the lines
// the owner does not hold move to the owner's cache from their
// lowest-numbered holder, one word step per holder, then the owner writes
// back every line of the word it holds in one more, which clears every
// other copy. It is the one drain of a flush of every cache: Thread's
// RFlush and LWB load ask it for one line, a one-bit word step.
func (s *State) DrainRange(lo, hi LocID, take func(TauWord)) {
	for lo < hi {
		owner, past := s.topo.OwnerThrough(lo)
		past = min(past, hi)
		own := &s.rows[owner].held
		for w, in := range WordsOf(lo, past) {
			// A copy moves to the owner from its lowest holder only: once
			// there, the owner's word masks it out of the later holders'.
			for m := range s.holders.Machines(LocID(w << 6)) {
				if m == owner {
					continue
				}
				if mask := s.rows[m].held.words[w] & in &^ own.words[w]; mask != 0 {
					take(TauWord{From: m, Word: w, Mask: mask})
				}
			}
			if mask := own.words[w] & in; mask != 0 {
				take(TauWord{From: owner, Word: w, Mask: mask, ToMemory: true})
			}
		}
		lo = past
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

// MachineMask is a bitmask of machines per occupancy word of a topology's
// locations: ⌈machines/64⌉ uint64s for each word, bit m%64 of the m/64-th
// standing for machine m. A State keeps one exact — bit m of a word is set
// iff row m holds a page for it — and package memsim keeps one over its
// clean-copy overlay as a superset of the machines with a line in the
// word.
type MachineMask struct {
	stride int // uint64s per occupancy word
	bits   []uint64
}

// NewMachineMask returns the empty mask of machines machines over locs
// locations.
func NewMachineMask(machines, locs int) MachineMask {
	stride, n := machineMaskLayout(machines, locs)
	return MachineMask{stride: stride, bits: make([]uint64, n)}
}

// machineMaskLayout returns, for a mask of machines machines over locs
// locations, the uint64s each occupancy word takes and the mask's length.
func machineMaskLayout(machines, locs int) (stride, n int) {
	stride = (machines + 63) / 64
	return stride, stride * ((locs + 63) / 64)
}

// Add sets machine m's bit for l's occupancy word.
func (k *MachineMask) Add(m MachineID, l LocID) {
	k.bits[int(l)>>6*k.stride+int(m)>>6] |= 1 << (uint(m) & 63)
}

// Drop clears machine m's bit for l's occupancy word.
func (k *MachineMask) Drop(m MachineID, l LocID) {
	k.bits[int(l)>>6*k.stride+int(m)>>6] &^= 1 << (uint(m) & 63)
}

// Has reports whether machine m's bit is set for l's occupancy word.
func (k *MachineMask) Has(m MachineID, l LocID) bool {
	return k.bits[int(l)>>6*k.stride+int(m)>>6]&(1<<(uint(m)&63)) != 0
}

// Machines returns the machines whose bit is set for l's occupancy word,
// lowest first. Each uint64 of the word's mask is read once, when the walk
// reaches it, so the loop it drives may clear the bit of the machine it is
// at. TestRFlushRangeDoesNotAllocate holds the walks on the flush path to
// no allocation: the loop's closure must not escape.
func (k *MachineMask) Machines(l LocID) iter.Seq[MachineID] {
	return func(yield func(MachineID) bool) {
		at := int(l) >> 6 * k.stride
		for i := range k.stride {
			for mask := k.bits[at+i]; mask != 0; mask &= mask - 1 {
				if !yield(MachineID(i<<6 | bits.TrailingZeros64(mask))) {
					return
				}
			}
		}
	}
}
