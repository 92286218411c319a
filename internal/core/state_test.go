package core

import (
	"runtime"
	"testing"
)

// pageCensus counts the pages of s: those a row's table entry holds, those
// memory's table holds, and those on the free list.
func pageCensus(s *State) (held, mem, free int) {
	for _, r := range s.rows {
		for _, off := range r.page {
			if off != 0 {
				held++
			}
		}
	}
	for _, off := range s.memPage {
		if off != s.zeroPage() {
			mem++
		}
	}
	for off := s.free; off != 0; off = uint64(s.cells[off]) {
		free++
	}
	return held, mem, free
}

// pagesMade is the number of pages s's slab has made: every page but the
// shared ones of ⊥ and zeros.
func pagesMade(s *State) int { return len(s.cells)/s.pageLen - 2 }

// TestCloneIsDeep: a state and its clone share no cell. Each side writes
// into a cache page and a memory page it held at the time of the clone,
// empties a page and takes the recycled page for other lines, takes a page
// the other side's free list also offers, and takes a memory page for a
// word neither held; each must still answer as its own mirror does.
func TestCloneIsDeep(t *testing.T) {
	topo := fuzzTopo()
	s, d := NewState(topo), newDense(topo)
	set := func(s *State, d *dense, m MachineID, l LocID, v Val) {
		s.SetCache(m, l, v)
		d.cache[m][l] = v
	}
	set(s, d, 0, 0, 1)    // a page of machine 0
	set(s, d, 0, 200, 2)  // a second one
	set(s, d, 2, 4200, 3) // one of machine 2, in the last, partial word
	s.SetMem(5, 6)        // a memory page
	d.mem[5] = 6
	set(s, d, 1, 70, 4) // and one that is given back before the clone
	set(s, d, 1, 70, Bot)
	if held, mem, free := pageCensus(s); held != 3 || mem != 1 || free != 1 {
		t.Fatalf("before the clone: %d cache and %d memory pages held, %d free, want 3, 1 and 1", held, mem, free)
	}

	c, dc := s.Clone(), d.clone()
	if held, mem, free := pageCensus(c); held != 3 || mem != 1 || free != 0 || pagesMade(c) != 4 {
		t.Errorf("the clone: %d cache and %d memory pages held, %d free, %d made, want 3, 1, none and 4", held, mem, free, pagesMade(c))
	}
	for _, side := range []struct {
		name string
		s    *State
		d    *dense
		v    Val
	}{{"clone", c, dc, 7}, {"original", s, d, 8}} {
		set(side.s, side.d, 0, 1, side.v)    // beside line 0, in its page
		set(side.s, side.d, 2, 4200, Bot)    // machine 2's page goes back…
		set(side.s, side.d, 1, 130, side.v)  // …and is taken again, for other lines
		set(side.s, side.d, 1, 4100, side.v) // the page the original had free at the clone
		set(side.s, side.d, 0, 4230, side.v) // and a page neither side has made yet
		side.s.SetMem(3, side.v)             // beside M(5), in its page
		side.d.mem[3] = side.v
		side.s.SetMem(300, side.v) // and a memory page neither side has made yet
		side.d.mem[300] = side.v
		for _, other := range []struct {
			s *State
			d *dense
		}{{s, d}, {c, dc}} {
			if err := sameState(other.s, other.d); err != nil {
				t.Fatalf("after writing to the %s: %v", side.name, err)
			}
		}
	}
	if s.Equal(c) || s.Key() == c.Key() {
		t.Errorf("states that differ are Equal: %v and %v", s, c)
	}
}

// TestStateFootprint: a state's size follows what is cached and written,
// not machines × locations, nor locations. The benchmark's largest shape
// (13 × 221 256, 23 MB of cells if every ⊥ were written out, 1.8 MB more
// if memory were a cell per location) starts at its tables, 789 KB, under
// 850 KiB; after ten thousand stores with as many drains a row holds a
// page exactly where its occupancy has a non-zero word, memory holds the
// pages its write-backs took, every other page made is on the free list,
// and stepping on allocates nothing.
func TestStateFootprint(t *testing.T) {
	const machines, locs = 13, 221256
	topo := NewTopology()
	topo.AddMachine("front", NonVolatile)
	for m := 1; m < machines; m++ {
		topo.AddLocs(topo.AddMachine("dev", NonVolatile), locs/(machines-1))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewState(topo)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 850<<10 {
		t.Errorf("NewState of %d × %d allocates %d bytes, want at most 850 KiB", machines, locs, got)
	}

	// A store puts a line somewhere; seven of eight are followed by two
	// drains, each taking some held line one step towards memory (the
	// first may retire a line, so the second picks among one fewer). Lines
	// and their pages come and go throughout.
	step := func(i int) {
		ApplyInPlace(s, LStoreL(MachineID(i%machines), LocID(i*7919%locs), Val(i%5)), Base)
		if n := s.TauStepCount(); i%8 != 0 && n > 16 {
			ApplyTauInPlace(s, s.TauStepAt(i*104729%n))
			ApplyTauInPlace(s, s.TauStepAt(i*1299709%(n-1)))
		}
	}
	for i := 0; i < 10000; i++ {
		step(i)
	}
	words := 0
	for _, r := range s.rows {
		for _, w := range r.held.words {
			if w != 0 {
				words++
			}
		}
	}
	held, mem, free := pageCensus(s)
	if made := pagesMade(s); held != words || held == 0 || mem == 0 || free == 0 || held+mem+free != made {
		t.Errorf("%d pages made: %d held for %d non-zero occupancy words, %d by memory, %d free", made, held, words, mem, free)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
	i := 10000
	if allocs := testing.AllocsPerRun(2000, func() { step(i); i++ }); allocs != 0 {
		t.Errorf("a store and its drains allocate %v times once the pages exist", allocs)
	}
}

// TestMemoryPagedOnWrite: memory takes a page for a word at the first value
// other than 0 written under it — by SetMem, an MStore or a write-back — a
// write-back that empties the owner's row word hands the row's page over
// instead of taking one, a volatile crash gives back the pages its reset
// covers whole, which read 0 when taken again, and Clone copies exactly
// the memory pages held.
func TestMemoryPagedOnWrite(t *testing.T) {
	topo := fuzzTopo() // b, volatile, owns 70…4165: word 1 in part, words 2–64 whole
	s, d := NewState(topo), newDense(topo)
	a, b := MachineID(0), MachineID(1)
	census := func(step string, wantMem, wantFree, wantMade int) {
		t.Helper()
		held, mem, free := pageCensus(s)
		if mem != wantMem || free != wantFree || pagesMade(s) != wantMade || held+mem+free != pagesMade(s) {
			t.Fatalf("after %s: %d cache and %d memory pages held, %d free, %d made; want %d memory, %d free, %d made",
				step, held, mem, free, pagesMade(s), wantMem, wantFree, wantMade)
		}
		if err := sameState(s, d); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	apply := func(l Label) {
		ApplyInPlace(s, l, Base)
		d.apply(l, Base)
	}
	writeBack := func(l LocID) {
		ts := TauStep{From: topo.Owner(l), Loc: l, ToMemory: true}
		ApplyTauInPlace(s, ts)
		d.tau(ts)
	}

	s.SetMem(5, 0)
	apply(MStoreL(a, 200, 0))
	census("writing 0 to untouched words", 0, 0, 0)
	s.SetMem(5, 3)
	d.mem[5] = 3
	census("the first value other than 0", 1, 0, 1)
	s.SetMem(6, 4)
	d.mem[6] = 4
	apply(MStoreL(a, 100, 1)) // word 1, in b's part of it
	apply(MStoreL(a, 200, 2)) // word 3, all b's
	census("writes to a held word and two more", 3, 0, 3)

	apply(LStoreL(b, 300, 0))
	writeBack(300)
	census("writing back a 0", 3, 1, 4) // the row's page, given back
	apply(LStoreL(b, 400, 7))           // takes that page
	writeBack(400)
	census("writing back the only line of b's row word", 4, 0, 4)

	c, dc := s.Clone(), d.clone()
	if held, mem, free := pageCensus(c); held != 0 || mem != 4 || free != 0 || pagesMade(c) != 4 {
		t.Errorf("the clone: %d cache and %d memory pages held, %d free, %d made; want 0, 4, none and 4",
			held, mem, free, pagesMade(c))
	}

	apply(CrashL(b))
	census("b's volatile crash", 2, 2, 4) // words 3 and 6 go back; word 1 keeps a's lines
	for _, l := range []LocID{100, 200, 400} {
		if v := s.Mem(l); v != 0 {
			t.Errorf("M(%d) = %d after b's crash, want 0", l, v)
		}
	}
	apply(MStoreL(a, 250, 5)) // word 3 again: a recycled page, all zeros
	apply(MStoreL(a, 900, 6))
	census("two writes after the crash", 4, 0, 4)
	if err := sameState(c, dc); err != nil {
		t.Errorf("the clone, after the original crashed: %v", err)
	}
}
