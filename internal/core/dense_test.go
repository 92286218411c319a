package core

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// dense is the layout State had before its cache rows were paged — one
// cell per (machine, location), ⊥ written out — and a second, plain
// implementation of the transitions over it. The tests replay into a dense
// whatever they do to a State and hold everything the State answers to it
// (agrees), so none of those answers is checked against another reader of
// the same pages.
type dense struct {
	topo  *Topology
	cache [][]Val
	mem   []Val
}

func newDense(t *Topology) *dense {
	d := &dense{topo: t, cache: make([][]Val, t.NumMachines()), mem: make([]Val, t.NumLocs())}
	for m := range d.cache {
		d.cache[m] = slices.Repeat([]Val{Bot}, t.NumLocs())
	}
	return d
}

func (d *dense) clone() *dense {
	c := &dense{topo: d.topo, mem: slices.Clone(d.mem)}
	for _, row := range d.cache {
		c.cache = append(c.cache, slices.Clone(row))
	}
	return c
}

func (d *dense) invalidate(l LocID) {
	for m := range d.cache {
		d.cache[m][l] = Bot
	}
}

// cached is State.CachedValue.
func (d *dense) cached(l LocID) (Val, bool) {
	for m := range d.cache {
		if v := d.cache[m][l]; v != Bot {
			return v, true
		}
	}
	return Bot, false
}

// readable is State.Readable.
func (d *dense) readable(l LocID) Val {
	if v, ok := d.cached(l); ok {
		return v
	}
	return d.mem[l]
}

// apply is ApplyInPlace: it performs l under v if enabled, and says whether
// it was.
func (d *dense) apply(l Label, v Variant) bool {
	switch l.Op {
	case OpLoad:
		if v == LWB {
			if own := d.cache[l.M][l.Loc]; own != Bot {
				return own == l.Val
			}
			_, held := d.cached(l.Loc)
			return !held && d.mem[l.Loc] == l.Val
		}
		if cv, ok := d.cached(l.Loc); ok {
			if cv == l.Val {
				d.cache[l.M][l.Loc] = cv
			}
			return cv == l.Val
		}
		return d.mem[l.Loc] == l.Val
	case OpLStore, OpRStore, OpMStore:
		d.invalidate(l.Loc)
		switch l.Op {
		case OpLStore:
			d.cache[l.M][l.Loc] = l.Val
		case OpRStore:
			d.cache[d.topo.Owner(l.Loc)][l.Loc] = l.Val
		default:
			d.mem[l.Loc] = l.Val
		}
		return true
	case OpLFlush:
		return d.cache[l.M][l.Loc] == Bot
	case OpRFlush, OpRFlushRange:
		n := l.N
		if l.Op == OpRFlush {
			n = 1
		}
		for i := 0; i < n; i++ {
			if _, held := d.cached(l.Loc + LocID(i)); held {
				return false
			}
		}
		return n >= 1
	case OpGPF:
		return len(d.tauSteps()) == 0
	case OpLRMW, OpRRMW, OpMRMW:
		if d.readable(l.Loc) != l.Old {
			return false
		}
		store := map[Op]Op{OpLRMW: OpLStore, OpRRMW: OpRStore, OpMRMW: OpMStore}[l.Op]
		return d.apply(Label{Op: store, M: l.M, Loc: l.Loc, Val: l.New}, Base)
	case OpCrash:
		d.crash(l.M, v)
		return true
	}
	panic(fmt.Sprintf("dense: unknown op %v", l.Op))
}

// crash is CrashInPlace, by the definition: every location is looked at.
func (d *dense) crash(m MachineID, v Variant) {
	for l := range d.mem {
		d.cache[m][l] = Bot
		if d.topo.Owner(LocID(l)) != m {
			continue
		}
		if d.topo.Mem(m) == Volatile {
			d.mem[l] = 0
		}
		if v == PSN {
			d.invalidate(LocID(l))
		}
	}
}

// tau is ApplyTauInPlace.
func (d *dense) tau(t TauStep) {
	v := d.cache[t.From][t.Loc]
	d.cache[t.From][t.Loc] = Bot
	if t.ToMemory {
		d.invalidate(t.Loc)
		d.mem[t.Loc] = v
	} else {
		d.cache[d.topo.Owner(t.Loc)][t.Loc] = v
	}
}

// tauSteps is TauSteps.
func (d *dense) tauSteps() []TauStep {
	var steps []TauStep
	for m, row := range d.cache {
		for l, v := range row {
			if v != Bot {
				steps = append(steps, TauStep{From: MachineID(m), Loc: LocID(l), ToMemory: d.topo.Owner(LocID(l)) == MachineID(m)})
			}
		}
	}
	return steps
}

// key is State.Key.
func (d *dense) key() string {
	var b []byte
	for _, row := range append(slices.Clone(d.cache), d.mem) {
		for _, v := range row {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	return string(b)
}

// state returns a fresh State of d's cells, written highest location
// first — not the order any test's history put them there in, so its pages
// are other pages in another order.
func (d *dense) state() *State {
	s := NewState(d.topo)
	for l := len(d.mem) - 1; l >= 0; l-- {
		s.SetMem(LocID(l), d.mem[l])
		for m := range d.cache {
			s.SetCache(MachineID(m), LocID(l), d.cache[m][l])
		}
	}
	return s
}

// agrees holds what s answers to d, a page of cells at a time: every cell
// and memory value, the enumerated τ steps and the index's count and
// selection of them, and CachesEmpty. It also checks that s holds a page
// exactly where a 64-line stretch of a row has a line, that the holder
// mask names exactly the rows that hold one, and that the shared pages of
// ⊥ and of zeros are unwritten.
func agrees(s *State, d *dense) error {
	for m, row := range d.cache {
		for w, off := range s.rows[m].page {
			stretch := row[w*pageCells : min((w+1)*pageCells, len(row))]
			if got := s.lines(MachineID(m), w); !slices.Equal(got, stretch) {
				return fmt.Errorf("C%d(%d…) = %v, the mirror has %v", m, w*pageCells, got, stretch)
			}
			if empty := slices.Equal(stretch, s.cells[:len(stretch)]); empty != (off == 0) {
				return fmt.Errorf("C%d: locations %d… all ⊥: %v, no page held: %v", m, w*pageCells, empty, off == 0)
			}
			if bit := s.holders.Has(MachineID(m), LocID(w*pageCells)); bit != (off != 0) {
				return fmt.Errorf("C%d: holder mask bit for locations %d… is %v, a page held: %v", m, w*pageCells, bit, off != 0)
			}
		}
	}
	for w := range s.memPage {
		stretch := d.mem[w*pageCells : min((w+1)*pageCells, len(d.mem))]
		if got := s.memLines(w); !slices.Equal(got, stretch) {
			return fmt.Errorf("M(%d…) = %v, the mirror has %v", w*pageCells, got, stretch)
		}
	}
	bot, zeros := s.cells[:s.pageLen], s.cells[s.pageLen:2*s.pageLen]
	if slices.ContainsFunc(bot, func(v Val) bool { return v != Bot }) || slices.ContainsFunc(zeros, func(v Val) bool { return v != 0 }) {
		return fmt.Errorf("a shared page was written: ⊥ %v, zeros %v", bot, zeros)
	}
	steps := d.tauSteps()
	if got := TauSteps(s); !slices.Equal(got, steps) {
		return fmt.Errorf("TauSteps = %v, the mirror enumerates %v", got, steps)
	}
	if n := s.TauStepCount(); n != len(steps) {
		return fmt.Errorf("TauStepCount = %d, the mirror enumerates %d in %v", n, len(steps), s)
	}
	for k, want := range steps {
		if got := s.TauStepAt(k); got != want {
			return fmt.Errorf("TauStepAt(%d) = %v, the mirror's step %d is %v", k, got, k, want)
		}
	}
	if s.CachesEmpty() != (len(steps) == 0) {
		return fmt.Errorf("CachesEmpty = %v, the mirror holds %d lines", s.CachesEmpty(), len(steps))
	}
	return nil
}

// sameState is agrees, and holds to d what s answers one location at a
// time — Cache, Mem — and s's identity: its key, and equality both ways
// with a State built from d from scratch. It costs several times what
// agrees does.
func sameState(s *State, d *dense) error {
	if err := agrees(s, d); err != nil {
		return err
	}
	for l, want := range d.mem {
		if got := s.Mem(LocID(l)); got != want {
			return fmt.Errorf("M(%d) = %d, the mirror has %d", l, got, want)
		}
		for m, row := range d.cache {
			if got := s.Cache(MachineID(m), LocID(l)); got != row[l] {
				return fmt.Errorf("C%d(%d) = %d, the mirror has %d", m, l, got, row[l])
			}
		}
	}
	if s.Key() != d.key() {
		return fmt.Errorf("Key differs from the mirror's in %v", s)
	}
	if twin := d.state(); !s.Equal(twin) || !twin.Equal(s) || twin.Key() != s.Key() {
		return fmt.Errorf("%v is not Equal to the same cells written in another order, %v", s, twin)
	}
	return nil
}
