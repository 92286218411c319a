package ds

import (
	"cxl0/internal/core"
	"cxl0/internal/flit"
)

// Set is a durably linearizable set: one sorted Harris list (list.go) of
// two-field nodes, key and marked next pointer.
type Set struct {
	l    list
	head flit.Var
}

// NewSet allocates an empty set on the heap's machine.
func NewSet(h *flit.Heap) (*Set, error) {
	head, err := h.AllocVar()
	if err != nil {
		return nil, err
	}
	return &Set{l: list{h: h, width: 2}, head: head}, nil
}

// Insert adds k; it returns false when k is already present.
func (s *Set) Insert(se *flit.Session, k core.Val) (bool, error) {
	if k < 0 {
		return false, ErrNegative
	}
	found, err := s.l.link(se, s.head, k)
	return done(se, found == nilPtr, err)
}

// Remove deletes k; it returns false when k is absent.
func (s *Set) Remove(se *flit.Session, k core.Val) (bool, error) {
	if k < 0 {
		return false, ErrNegative
	}
	ok, err := s.l.unlink(se, s.head, k)
	return done(se, ok, err)
}

// Contains reports whether k is present. It is wait-free with respect to
// the list length: no snipping, just traversal.
func (s *Set) Contains(se *flit.Session, k core.Val) (bool, error) {
	if k < 0 {
		return false, ErrNegative
	}
	found, err := s.l.lookup(se, s.head, k)
	return done(se, found != nilPtr, err)
}

// Snapshot returns the unmarked keys in order. Intended for recovery
// inspection and tests; it is not atomic under concurrency.
func (s *Set) Snapshot(se *flit.Session) ([]core.Val, error) {
	var out []core.Val
	err := s.l.walk(se, s.head, func(_, key core.Val, live bool) (bool, error) {
		if live {
			out = append(out, key)
		}
		return true, nil
	})
	return out, err
}
