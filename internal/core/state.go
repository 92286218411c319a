package core

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// State is a CXL0 system state γ = (C, M): per-machine caches over the whole
// address space (Bot = invalid) and one memory cell per location, held by
// its owner.
type State struct {
	topo *Topology
	// cells backs cache and mem — one row of NumLocs values per machine,
	// then memory — so that Clone copies all of them with one allocation.
	cells []Val
	cache [][]Val // [machine][loc]; Bot means ⊥; written only by setCache
	mem   []Val   // [loc], stored at Owner(loc)

	// occ and held index the non-⊥ cells of cache (occupancy.go). They are
	// derived from it, so Key, Equal and String leave them out.
	occBits []uint64    // backs every machine's occupancy
	occ     []occupancy // [machine]
	held    int         // non-⊥ cells over all machines
}

// NewState returns the initial state for t: all caches ⊥, all memory zero.
func NewState(t *Topology) *State {
	s := &State{topo: t, occ: make([]occupancy, t.NumMachines())}
	_, stride := occLayout(t.NumLocs())
	s.occBits = make([]uint64, t.NumMachines()*stride)
	s.cells = make([]Val, (t.NumMachines()+1)*t.NumLocs())
	for i := range s.cells[:t.NumMachines()*t.NumLocs()] {
		s.cells[i] = Bot
	}
	s.carve()
	return s
}

// carve points the cache rows and mem at their parts of cells, and every
// machine's occupancy at its part of occBits.
func (s *State) carve() {
	n := s.topo.NumLocs()
	blocks, stride := occLayout(n)
	s.cache = make([][]Val, s.topo.NumMachines())
	for m := range s.cache {
		s.cache[m] = s.cells[m*n : (m+1)*n : (m+1)*n]
		part := s.occBits[m*stride : (m+1)*stride]
		s.occ[m].block, s.occ[m].words = part[:blocks], part[blocks:]
	}
	s.mem = s.cells[len(s.cache)*n:]
}

// Topology returns the topology this state belongs to.
func (s *State) Topology() *Topology { return s.topo }

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := *s
	c.cells = append([]Val(nil), s.cells...)
	c.occBits = append([]uint64(nil), s.occBits...)
	c.occ = append([]occupancy(nil), s.occ...)
	c.carve()
	return &c
}

// Cache returns C_m(l).
func (s *State) Cache(m MachineID, l LocID) Val { return s.cache[m][l] }

// Mem returns M_k(l) where k owns l.
func (s *State) Mem(l LocID) Val { return s.mem[l] }

// SetCache sets C_m(l) = v. Exported for test setup and the runtime; normal
// evolution goes through Apply and TauSuccessors.
func (s *State) SetCache(m MachineID, l LocID, v Val) { s.setCache(m, l, v) }

// SetMem sets M(l) = v.
func (s *State) SetMem(l LocID, v Val) { s.mem[l] = v }

// CachedValue returns the unique valid cached value of l and true, or
// (Bot, false) when no cache holds l. The global invariant guarantees
// uniqueness.
func (s *State) CachedValue(l LocID) (Val, bool) {
	for m := range s.cache {
		if v := s.cache[m][l]; v != Bot {
			return v, true
		}
	}
	return Bot, false
}

// Readable returns the value a Load of l would observe in this state:
// the valid cached copy if one exists, otherwise the owner's memory.
func (s *State) Readable(l LocID) Val {
	if v, ok := s.CachedValue(l); ok {
		return v
	}
	return s.mem[l]
}

// NoCacheHolds reports whether no machine caches l (∀j. C_j(l) = ⊥).
func (s *State) NoCacheHolds(l LocID) bool {
	for m := range s.cache {
		if s.cache[m][l] != Bot {
			return false
		}
	}
	return true
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
	for l := 0; l < s.topo.NumLocs(); l++ {
		have := Bot
		for m := range s.cache {
			v := s.cache[m][l]
			if v == Bot {
				continue
			}
			if have != Bot && v != have {
				return fmt.Errorf("core: invariant violation at %s: caches hold both %d and %d",
					s.topo.LocName(LocID(l)), have, v)
			}
			have = v
		}
		if s.mem[l] < 0 {
			return fmt.Errorf("core: negative memory value %d at %s", s.mem[l], s.topo.LocName(LocID(l)))
		}
	}
	return nil
}

// Key returns a compact canonical encoding of the state, suitable as a map
// key for memoized exploration. Two states of the same topology have equal
// keys iff they are equal.
func (s *State) Key() string {
	var b []byte
	for m := range s.cache {
		for _, v := range s.cache[m] {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	for _, v := range s.mem {
		b = binary.AppendVarint(b, int64(v))
	}
	return string(b)
}

// Equal reports whether s and o are the same state of the same topology.
func (s *State) Equal(o *State) bool {
	if s.topo != o.topo {
		return false
	}
	for m := range s.cache {
		for l := range s.cache[m] {
			if s.cache[m][l] != o.cache[m][l] {
				return false
			}
		}
	}
	for l := range s.mem {
		if s.mem[l] != o.mem[l] {
			return false
		}
	}
	return true
}

// String renders the state for debugging, e.g.
// "C0{x=1} C1{} | M{x:0 y:2}".
func (s *State) String() string {
	var sb strings.Builder
	for m := range s.cache {
		if m > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "C%d{", m)
		first := true
		for l, v := range s.cache[m] {
			if v == Bot {
				continue
			}
			if !first {
				sb.WriteByte(' ')
			}
			first = false
			fmt.Fprintf(&sb, "%s=%d", s.topo.LocName(LocID(l)), v)
		}
		sb.WriteByte('}')
	}
	sb.WriteString(" | M{")
	for l, v := range s.mem {
		if l > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s:%d", s.topo.LocName(LocID(l)), v)
	}
	sb.WriteByte('}')
	return sb.String()
}
