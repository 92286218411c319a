package ds

import (
	"cxl0/internal/core"
	"cxl0/internal/flit"
)

// Map is a durably linearizable hash map in the form of Michael's
// lock-free hash table: a fixed array of bucket heads, each a sorted
// Harris list (list.go) of three-field nodes — key, value, and marked
// next pointer. Updates to an existing key overwrite the node's value
// field (an atomic register per key).
type Map struct {
	l       list
	buckets []flit.Var
}

// NewMap allocates a map with the given bucket count on the heap's machine.
func NewMap(h *flit.Heap, buckets int) (*Map, error) {
	if buckets <= 0 {
		buckets = 16
	}
	bs, err := h.AllocVars(buckets)
	if err != nil {
		return nil, err
	}
	return &Map{l: list{h: h, width: 3}, buckets: bs}, nil
}

func (m *Map) bucket(k core.Val) flit.Var {
	// Fibonacci hashing over the key.
	h := uint64(k) * 0x9e3779b97f4a7c15
	return m.buckets[h%uint64(len(m.buckets))]
}

// Put maps k to v, overwriting any previous value.
func (m *Map) Put(se *flit.Session, k, v core.Val) error {
	if k < 0 || v < 0 {
		return ErrNegative
	}
	found, err := m.l.link(se, m.bucket(k), k, v)
	if err == nil && found != nilPtr {
		err = se.Store(m.l.field(found, 1), v)
	}
	if err != nil {
		return err
	}
	return se.Complete()
}

// Get returns the value mapped to k; ok is false when k is absent.
func (m *Map) Get(se *flit.Session, k core.Val) (v core.Val, ok bool, err error) {
	if k < 0 {
		return 0, false, ErrNegative
	}
	found, err := m.l.lookup(se, m.bucket(k), k)
	if err == nil && found != nilPtr {
		v, err = se.Load(m.l.field(found, 1))
	}
	if err != nil {
		return 0, false, err
	}
	return v, found != nilPtr, se.Complete()
}

// Delete removes k; it returns false when k is absent.
func (m *Map) Delete(se *flit.Session, k core.Val) (bool, error) {
	if k < 0 {
		return false, ErrNegative
	}
	ok, err := m.l.unlink(se, m.bucket(k), k)
	return done(se, ok, err)
}

// Snapshot returns all live key/value pairs. Not atomic under concurrency;
// intended for recovery inspection and tests.
func (m *Map) Snapshot(se *flit.Session) (map[core.Val]core.Val, error) {
	out := map[core.Val]core.Val{}
	for _, head := range m.buckets {
		err := m.l.walk(se, head, func(n, key core.Val, live bool) (bool, error) {
			if !live {
				return true, nil
			}
			v, err := se.Load(m.l.field(n, 1))
			out[key] = v
			return true, err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
