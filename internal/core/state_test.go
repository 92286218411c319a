package core

import (
	"runtime"
	"testing"
)

// pageCensus counts the pages of s: those a table entry holds, and those on
// the free list.
func pageCensus(s *State) (held, free int) {
	for _, r := range s.rows {
		for _, off := range r.page {
			if off != 0 {
				held++
			}
		}
	}
	for off := s.free; off != 0; off = uint64(s.cells[off]) {
		free++
	}
	return held, free
}

// TestCloneIsDeep: a state and its clone share no cell. Each side writes
// into a page it held at the time of the clone, empties a page and takes
// the recycled page for other lines, and takes a page the other side's free
// list also offers; each must still answer as its own mirror does.
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
	set(s, d, 1, 70, 4)   // and one that is given back before the clone
	set(s, d, 1, 70, Bot)
	s.SetMem(5, 6)
	d.mem[5] = 6
	if held, free := pageCensus(s); held != 3 || free != 1 {
		t.Fatalf("before the clone: %d pages held, %d free, want 3 and 1", held, free)
	}

	c, dc := s.Clone(), d.clone()
	if held, free := pageCensus(c); held != 3 || free != 0 {
		t.Errorf("the clone: %d pages held, %d free, want 3 and none", held, free)
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
		side.s.SetMem(3, side.v)
		side.d.mem[3] = side.v
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

// TestStateFootprint: a state's size follows what is cached, not machines ×
// locations. The benchmark's largest shape (13 × 221 256, 23 MB of cells
// when every ⊥ was written out) starts under 3 MB, and after ten thousand
// stores with as many drains a row holds a page exactly where its
// occupancy has a non-zero word, every other page made is on the free
// list, and stepping on allocates nothing.
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
	if got := after.TotalAlloc - before.TotalAlloc; got > 3<<20 {
		t.Errorf("NewState of %d × %d allocates %d bytes, want at most 3 MB", machines, locs, got)
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
	held, free := pageCensus(s)
	made := len(s.cells)/s.pageLen - 1 // the first is the shared page of ⊥
	if held != words || held == 0 || free == 0 || held+free != made {
		t.Errorf("%d pages made: %d held for %d non-zero occupancy words, %d free", made, held, words, free)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
	i := 10000
	if allocs := testing.AllocsPerRun(2000, func() { step(i); i++ }); allocs != 0 {
		t.Errorf("a store and its drains allocate %v times once the pages exist", allocs)
	}
}
