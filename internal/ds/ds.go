// Package ds provides linearizable concurrent data structures written
// against the CXL0 runtime's primitives through the flit persistence layer:
// an atomic register, a counter, a Treiber stack, a Michael–Scott queue, a
// set and a hash map. The set and every bucket of the map are the same
// Harris lock-free sorted list (list.go), so the map is Michael's
// lock-free hash table.
//
// The structures themselves are ordinary lock-free algorithms; every shared
// memory access goes through a flit.Session, so the persistence strategy
// (Algorithm 2, MStore-everything, the unsound original FliT, or nothing)
// is pluggable. Under a correct strategy each structure is durably
// linearizable per the paper's §6 theorem: FliT applied to a linearizable
// object yields a durably linearizable one.
//
// Values and keys must be non-negative (the runtime reserves negative
// values). Nodes are never reclaimed, which sidesteps ABA without
// hazard-pointer machinery — acceptable for a simulator.
package ds

import (
	"errors"

	"cxl0/internal/core"
	"cxl0/internal/flit"
)

// ErrNegative is returned when a caller passes a negative value or key.
var ErrNegative = errors.New("ds: values and keys must be non-negative")

// ErrCorrupt is returned when a structure's anchors were lost in a crash —
// possible only under persistence strategies that are unsound for the
// partial-crash model.
var ErrCorrupt = errors.New("ds: structure corrupted by crash (anchor pointer lost)")

// nilPtr is the encoded null pointer.
const nilPtr core.Val = 0

// ptr encodes a node base location as a pointer value (0 is reserved for
// nil).
func ptr(base core.LocID) core.Val { return core.Val(base) + 1 }

// nodeBase decodes a pointer value into a node base location; ok is false
// for nil.
func nodeBase(v core.Val) (core.LocID, bool) {
	if v == nilPtr {
		return 0, false
	}
	return core.LocID(v - 1), true
}

// field returns the i-th persistent field of the node at base.
func field(h *flit.Heap, base core.LocID, i int) flit.Var { return h.FieldVar(base, i) }

// enc packs a pointer value and a deletion mark into one word (Harris-style
// marked pointers).
func enc(p core.Val, marked bool) core.Val {
	if marked {
		return p*2 + 1
	}
	return p * 2
}

// dec unpacks a marked pointer word.
func dec(v core.Val) (p core.Val, marked bool) { return v / 2, v%2 == 1 }
