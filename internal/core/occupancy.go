package core

import "math/bits"

// This file is the occupancy index of a State: which cache cells hold a
// line. The τ rule lets any held line propagate, so picking the k-th
// enabled step is "select the k-th set bit in (machine, loc) order"; the
// index answers that, and "is anything cached at all", without walking the
// machines × locations cells. State.setCache is the only writer of a cache
// cell and keeps the index in step; TauSteps stays the enumerating
// reference the index is tested against.

// blockWords is how many 64-line bitset words one block count covers:
// select walks at most one machine's block counts, then blockWords words,
// then the bits of one word.
const blockWords = 64

// occupancy indexes one machine's cache row: the count of lines the cache
// holds, that count per block of blockWords words, and the words
// themselves — bit l%64 of word l/64 is set iff the cache holds line l.
// block and words are parts of State.occBits, which all machines share so
// that Clone copies them with a single allocation.
type occupancy struct {
	total int
	block []uint64
	words []uint64
}

// occLayout returns, for a state over locs locations, the number of block
// counts per machine and the length of one machine's part of
// State.occBits: its block counts, then its words.
func occLayout(locs int) (blocks, stride int) {
	words := (locs + 63) / 64
	blocks = (words + blockWords - 1) / blockWords
	return blocks, blocks + words
}

// flip toggles line l and moves the counts above it by d, +1 or -1.
func (o *occupancy) flip(l LocID, d int) {
	w := int(l) >> 6
	o.words[w] ^= 1 << (uint(l) & 63)
	o.block[w/blockWords] += uint64(d) // two's complement: -1 subtracts
	o.total += d
}

// nth returns the k-th held line in ascending order, 0 <= k < o.total.
func (o *occupancy) nth(k uint64) LocID {
	b := 0
	for ; k >= o.block[b]; b++ {
		k -= o.block[b]
	}
	w := b * blockWords
	for {
		n := uint64(bits.OnesCount64(o.words[w]))
		if k < n {
			break
		}
		k -= n
		w++
	}
	word := o.words[w]
	for ; k > 0; k-- {
		word &= word - 1
	}
	return LocID(w<<6 | bits.TrailingZeros64(word))
}

// each calls f on every held line in ascending order. f may clear the line
// it is handed.
func (o *occupancy) each(f func(LocID)) {
	for b, n := range o.block {
		if n == 0 {
			continue
		}
		lo := b * blockWords
		for w := lo; w < min(lo+blockWords, len(o.words)); w++ {
			for word := o.words[w]; word != 0; word &= word - 1 {
				f(LocID(w<<6 | bits.TrailingZeros64(word)))
			}
		}
	}
}

// setCache is the one place a cache cell is written.
func (s *State) setCache(m MachineID, l LocID, v Val) {
	row := s.cache[m]
	if was := row[l] != Bot; was != (v != Bot) {
		d := 1
		if was {
			d = -1
		}
		s.occ[m].flip(l, d)
		s.held += d
	}
	row[l] = v
}

// invalidate sets C_m(l) = ⊥ for every machine m.
func (s *State) invalidate(l LocID) {
	for m := range s.cache {
		s.setCache(MachineID(m), l, Bot)
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
		o := &s.occ[m]
		if k < o.total {
			l := o.nth(uint64(k))
			return TauStep{From: m, Loc: l, ToMemory: s.topo.Owner(l) == m}
		}
		k -= o.total
	}
}
