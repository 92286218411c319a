package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// State is a CXL0 system state γ = (C, M): per-machine caches over the whole
// address space (Bot = invalid) and a memory cell per location, held by its
// owner.
//
// Both are stored as pages of cells, 64 lines each (one occupancy word).
// A cache is a partial map, and is stored as one: a machine's row is a
// table with one entry per occupancy word, naming the page that holds the
// word's 64 lines, and a row holds a page only while the word holds a line
// — every other entry names the one page of ⊥ all rows share. Memory has a
// table of the same kind, whose entries start at a second shared page, of
// zeros: the first write of a value other than 0 under a word takes a page
// for it, and a volatile crash hands back the pages its reset covers.
// A state therefore takes O(machines × words) for its tables, plus a page
// per 64-line stretch that some cache holds a line of or that a run wrote
// memory in: not machines × locations cells, nor a cell per location of an
// address space a run never touches. Cache and memory pages come from one
// slab and go back to one free list, so stepping a live state allocates
// nothing once it has seen its largest number of pages.
//
// Whether a row holds a page for a word is also kept by word, across the
// rows: the holder mask names, per occupancy word, the machines holding a
// page for it. Every question of the form "which caches hold line l" —
// a store's invalidation, a lookup of the valid copy, a flush's drain —
// walks the set bits of l's mask, so it costs the holders of the line's
// word, not the machines.
type State struct {
	topo *Topology
	rows []cacheRow // [machine]
	// memPage is memory's table: M(l), stored at Owner(l), is
	// cells[memPage[l/64] + l%64], and an entry is zeroPage until a value
	// other than 0 is written under it.
	memPage []uint64
	locs    int

	// cells is every page, pageLen cells each. The first is the shared page
	// of ⊥ and the second the shared page of zeros; neither is ever
	// written. The rest are each held by one table entry or on the free
	// list, and are written only by setCache, clearWord, moveWord, setMem,
	// writeBack, clearMem and takePage.
	// free is the offset of the first free page (0: none), whose first cell
	// is the offset of the next; the other cells of a free page are stale.
	cells   []Val
	pageLen int // min(pageCells, locations): a small topology has small pages
	free    uint64

	// index backs every row's occupancy and table, the holder mask after
	// them and memory's table last, so that Clone copies them all with one
	// allocation. holders is derived from the tables, so Key, Equal and
	// String leave it out.
	index   []uint64
	holders MachineMask
	held    int // non-⊥ cells over all machines
}

// pageCells is the number of lines a page covers: those of one occupancy
// word.
const pageCells = 64

// cacheRow is one machine's cache: C_m(l) is cells[page[l/64] + l%64], and
// page[l/64] is 0, the shared page of ⊥, while the row holds none of those
// lines. held indexes the non-⊥ cells (occupancy.go); it is derived from
// them, so Key, Equal and String leave it out.
type cacheRow struct {
	page []uint64
	held LineSet
}

// NewState returns the initial state for t: all caches ⊥, all memory zero.
func NewState(t *Topology) *State {
	s := &State{topo: t, locs: t.NumLocs(), pageLen: min(pageCells, t.NumLocs())}
	s.cells = make([]Val, 2*s.pageLen)
	for i := range s.pageLen {
		s.cells[i] = Bot
	}
	s.carve(nil)
	return s
}

// zeroPage is the offset in cells of the shared page of zeros, where every
// entry of memory's table starts.
func (s *State) zeroPage() uint64 { return uint64(s.pageLen) }

// carve makes index, or a fresh one if index is nil, the backing of fresh
// rows for s, of its holder mask and of memory's table: each machine's part
// of it is its occupancy, then its table with an entry per occupancy word;
// the mask follows the last machine's, and memory's table, an entry per
// word, the mask. A fresh index has every row empty and every memory entry
// at the page of zeros.
func (s *State) carve(index []uint64) {
	machines := s.topo.NumMachines()
	blocks, set := lineSetLayout(s.locs)
	words := set - blocks
	stride := set + words // the set's words, and a table entry for each
	maskStride, maskLen := machineMaskLayout(machines, s.locs)
	fresh := index == nil
	if fresh {
		index = make([]uint64, machines*stride+maskLen+words)
	}
	s.rows, s.index = make([]cacheRow, machines), index
	for m := range s.rows {
		part := index[m*stride : (m+1)*stride : (m+1)*stride]
		s.rows[m] = cacheRow{held: lineSetOver(part[:set], blocks), page: part[set:]}
	}
	past := machines*stride + maskLen
	s.holders = MachineMask{stride: maskStride, bits: index[machines*stride : past : past]}
	s.memPage = index[past:]
	if fresh {
		for w := range s.memPage {
			s.memPage[w] = s.zeroPage()
		}
	}
}

// Clone returns a deep copy of s. The pages its rows and memory hold are
// copied into one slab; the free ones stay behind, as room for the pages
// the copy's next step may take.
func (s *State) Clone() *State {
	c := *s
	c.free = 0
	c.cells = make([]Val, 2*s.pageLen, len(s.cells)+s.pageLen)
	copy(c.cells, s.cells)
	c.carve(slices.Clone(s.index))
	copyPage := func(off uint64) uint64 {
		c.cells = append(c.cells, s.cells[off:int(off)+s.pageLen]...)
		return uint64(len(c.cells) - s.pageLen)
	}
	for m, r := range c.rows {
		c.rows[m].held.total = s.rows[m].held.total
		for w, off := range r.page {
			if off != 0 {
				r.page[w] = copyPage(off)
			}
		}
	}
	for w, off := range c.memPage {
		if off != c.zeroPage() {
			c.memPage[w] = copyPage(off)
		}
	}
	return &c
}

// takePage returns the offset in cells of a page that is a copy of the
// shared page at fill — of ⊥ for a row, of zeros for memory: a recycled one
// if the free list has any, a new one at the end otherwise.
func (s *State) takePage(fill uint64) uint64 {
	off := s.free
	if off == 0 {
		s.cells = append(s.cells, s.cells[fill:int(fill)+s.pageLen]...)
		return uint64(len(s.cells) - s.pageLen)
	}
	s.free = uint64(s.cells[off])
	copy(s.cells[off:int(off)+s.pageLen], s.cells[fill:int(fill)+s.pageLen])
	return off
}

// givePage puts the page at off on the free list.
func (s *State) givePage(off uint64) { s.cells[off], s.free = Val(s.free), off }

// setCache sets one cache cell to a value: the first line under an
// occupancy word takes a page of ⊥ for the word and sets the row's holder
// bit. Setting cells to ⊥ is clearWord's, a word step's move moveWord's.
func (s *State) setCache(m MachineID, l LocID, v Val) {
	if uint(l) >= uint(s.locs) {
		panic(fmt.Sprintf("core: no location %d to cache", l))
	}
	w, bit := LineWord(l)
	if v == Bot {
		s.clearWord(m, w, bit)
		return
	}
	r := &s.rows[m]
	off := r.page[w]
	if off == 0 {
		off = s.takePage(0)
		r.page[w] = off
		s.holders.Add(m, l)
	}
	s.held += r.held.AddWord(w, bit)
	s.cells[int(off)+int(l)&(pageCells-1)] = v
}

// clearWord sets C_m(l) = ⊥ for the lines l of occupancy word w that mask
// names, counting them off m's row with one popcount. When the word
// empties, the row's holder bit clears and its page goes back with its
// cells still set: takePage fills whatever it hands out.
func (s *State) clearWord(m MachineID, w int, mask uint64) {
	r := &s.rows[m]
	mask &= r.held.words[w]
	if mask == 0 {
		return
	}
	s.held -= r.held.RemoveWord(w, mask)
	off := r.page[w]
	if r.held.words[w] == 0 {
		r.page[w] = 0
		s.givePage(off)
		s.holders.Drop(m, LocID(w<<6))
		return
	}
	for ; mask != 0; mask &= mask - 1 {
		s.cells[int(off)+bits.TrailingZeros64(mask)] = Bot
	}
}

// moveWord is the horizontal word step: it moves the lines of occupancy
// word w that mask names, all held by from, to machine to's cache. When
// from gives up every line of the word and to holds none, the page itself
// changes hands; otherwise to takes a page if it has none before from
// gives one back, as the steps of the lines one by one would.
func (s *State) moveWord(from, to MachineID, w int, mask uint64) {
	r, o := &s.rows[from], &s.rows[to]
	src, dst := r.page[w], o.page[w]
	if dst == 0 && mask == r.held.words[w] {
		r.held.RemoveWord(w, mask)
		o.held.AddWord(w, mask)
		r.page[w], o.page[w] = 0, src
		s.holders.Drop(from, LocID(w<<6))
		s.holders.Add(to, LocID(w<<6))
		return
	}
	if dst == 0 {
		dst = s.takePage(0)
		o.page[w] = dst
		s.holders.Add(to, LocID(w<<6))
	}
	for word := mask; word != 0; word &= word - 1 {
		i := bits.TrailingZeros64(word)
		s.cells[int(dst)+i] = s.cells[int(src)+i]
	}
	s.held += o.held.AddWord(w, mask)
	s.clearWord(from, w, mask)
}

// invalidate sets C_m(l) = ⊥ for every machine m.
func (s *State) invalidate(l LocID) { s.invalidateWord(LineWord(l)) }

// invalidateWord sets C_m(l) = ⊥ for the lines l of occupancy word w that
// mask names and every machine m: for each one the holder mask names for
// the word.
func (s *State) invalidateWord(w int, mask uint64) {
	for m := range s.holders.Machines(LocID(w << 6)) {
		s.clearWord(m, w, mask)
	}
}

// Holder returns the lowest-numbered machine whose cache holds l, and false
// when no cache does. It asks only the machines the holder mask names for
// l's word.
func (s *State) Holder(l LocID) (MachineID, bool) {
	for m := range s.holders.Machines(l) {
		if s.Cache(m, l) != Bot {
			return m, true
		}
	}
	return 0, false
}

// Cache returns C_m(l). It and lines are the two readers of the cache:
// whatever looks at one cell asks Cache, whatever walks a row — the
// enumerating references included — asks lines.
func (s *State) Cache(m MachineID, l LocID) Val {
	return s.cells[int(s.rows[m].page[int(l)>>6])+int(l)&(pageCells-1)]
}

// lines returns machine m's cells for the lines of occupancy word w,
// w*pageCells and up: the page its row holds for them, or the shared page
// of ⊥.
func (s *State) lines(m MachineID, w int) []Val {
	off := int(s.rows[m].page[w])
	return s.cells[off : off+min(s.pageLen, s.locs-w*pageCells)]
}

// Mem returns M_k(l) where k owns l.
func (s *State) Mem(l LocID) Val {
	return s.cells[int(s.memPage[int(l)>>6])+int(l)&(pageCells-1)]
}

// memLines returns memory's cells for the lines of occupancy word w,
// w*pageCells and up: the page the word holds, or the shared page of
// zeros.
func (s *State) memLines(w int) []Val {
	off := int(s.memPage[w])
	return s.cells[off : off+min(s.pageLen, s.locs-w*pageCells)]
}

// setMem sets M(l) = v. The first value other than 0 under an occupancy
// word takes a page of zeros for the word; a 0 under a word without one is
// already there.
func (s *State) setMem(l LocID, v Val) {
	if uint(l) >= uint(s.locs) {
		panic(fmt.Sprintf("core: no location %d in memory", l))
	}
	w := int(l) >> 6
	off := s.memPage[w]
	if off == s.zeroPage() {
		if v == 0 {
			return
		}
		off = s.takePage(off)
		s.memPage[w] = off
	}
	s.cells[int(off)+int(l)&(pageCells-1)] = v
}

// clearMem sets M(l) = 0 for the lines l of occupancy word w that mask
// names. A word whose every line mask names gives its page back.
func (s *State) clearMem(w int, mask uint64) {
	off := s.memPage[w]
	if off == s.zeroPage() {
		return
	}
	if lines := s.locs - w*pageCells; mask == ^uint64(0)>>uint(max(0, pageCells-lines)) {
		s.memPage[w] = s.zeroPage()
		s.givePage(off)
		return
	}
	for ; mask != 0; mask &= mask - 1 {
		s.cells[int(off)+bits.TrailingZeros64(mask)] = 0
	}
}

// SetCache sets C_m(l) = v. Exported for test setup and the runtime; normal
// evolution goes through Apply and TauSuccessors.
func (s *State) SetCache(m MachineID, l LocID, v Val) { s.setCache(m, l, v) }

// SetMem sets M(l) = v.
func (s *State) SetMem(l LocID, v Val) { s.setMem(l, v) }

// CachedValue returns the unique valid cached value of l and true, or
// (Bot, false) when no cache holds l. The global invariant guarantees
// uniqueness.
func (s *State) CachedValue(l LocID) (Val, bool) {
	if m, held := s.Holder(l); held {
		return s.Cache(m, l), true
	}
	return Bot, false
}

// Readable returns the value a Load of l would observe in this state:
// the valid cached copy if one exists, otherwise the owner's memory.
func (s *State) Readable(l LocID) Val {
	if v, ok := s.CachedValue(l); ok {
		return v
	}
	return s.Mem(l)
}

// NoCacheHolds reports whether no machine caches l (∀j. C_j(l) = ⊥).
func (s *State) NoCacheHolds(l LocID) bool {
	_, held := s.Holder(l)
	return !held
}

// NoCacheHoldsRange reports whether no machine caches any of the n
// consecutive locations starting at l — the enabling condition of a ranged
// persistent flush.
func (s *State) NoCacheHoldsRange(l LocID, n int) bool {
	for i := 0; i < n; i++ {
		if !s.NoCacheHolds(l + LocID(i)) {
			return false
		}
	}
	return true
}

// CachesEmpty reports whether every cache is entirely empty.
func (s *State) CachesEmpty() bool { return s.held == 0 }

// CheckInvariant verifies the CXL0 global invariant: for every location, all
// valid cached copies hold the same value, and memory values are
// non-negative. It returns a descriptive error on violation.
func (s *State) CheckInvariant() error {
	for l := 0; l < s.locs; l++ {
		have := Bot
		for m := range s.rows {
			v := s.Cache(MachineID(m), LocID(l))
			if v == Bot {
				continue
			}
			if have != Bot && v != have {
				return fmt.Errorf("core: invariant violation at %s: caches hold both %d and %d",
					s.topo.LocName(LocID(l)), have, v)
			}
			have = v
		}
		if v := s.Mem(LocID(l)); v < 0 {
			return fmt.Errorf("core: negative memory value %d at %s", v, s.topo.LocName(LocID(l)))
		}
	}
	return nil
}

// Key returns a compact canonical encoding of the state, suitable as a map
// key for memoized exploration. Two states of the same topology have equal
// keys iff they are equal.
func (s *State) Key() string {
	b := make([]byte, 0, (len(s.rows)+1)*s.locs) // exact while every value fits a byte
	for m := range s.rows {
		for w := range s.rows[m].page {
			for _, v := range s.lines(MachineID(m), w) {
				b = binary.AppendVarint(b, int64(v))
			}
		}
	}
	for w := range s.memPage {
		for _, v := range s.memLines(w) {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	return string(b)
}

// Equal reports whether s and o are the same state of the same topology.
func (s *State) Equal(o *State) bool {
	if s.topo != o.topo {
		return false
	}
	for m := range s.rows {
		for w := range s.rows[m].page {
			if !slices.Equal(s.lines(MachineID(m), w), o.lines(MachineID(m), w)) {
				return false
			}
		}
	}
	for w := range s.memPage {
		if !slices.Equal(s.memLines(w), o.memLines(w)) {
			return false
		}
	}
	return true
}

// String renders the state for debugging, e.g.
// "C0{x=1} C1{} | M{x:0 y:2}".
func (s *State) String() string {
	var sb strings.Builder
	for m := range s.rows {
		if m > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "C%d{", m)
		first := true
		for w := range s.rows[m].page {
			for i, v := range s.lines(MachineID(m), w) {
				if v == Bot {
					continue
				}
				if !first {
					sb.WriteByte(' ')
				}
				first = false
				fmt.Fprintf(&sb, "%s=%d", s.topo.LocName(LocID(w*pageCells+i)), v)
			}
		}
		sb.WriteByte('}')
	}
	sb.WriteString(" | M{")
	for w := range s.memPage {
		for i, v := range s.memLines(w) {
			if w+i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s:%d", s.topo.LocName(LocID(w*pageCells+i)), v)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
