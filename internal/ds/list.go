package ds

import (
	"cxl0/internal/core"
	"cxl0/internal/flit"
)

// list is Harris's lock-free sorted linked list, the one list under Set
// and every Map bucket. A node is width fields wide: the key in field 0,
// any payload in the middle fields, and the marked next pointer (enc/dec)
// in the last. Deletion first marks the victim's next pointer (the
// linearization point), then unlinks it physically; searches snip marked
// nodes as they go. A head is a flit.Var holding the marked pointer to
// the first node; its own mark bit is never set.
type list struct {
	h     *flit.Heap
	width int
}

// noKey is the key search reports when no node follows: keys are
// non-negative, so it equals none.
const noKey core.Val = -1

// field returns field i of the node pointer value n names.
func (l list) field(n core.Val, i int) flit.Var {
	base, _ := nodeBase(n)
	return field(l.h, base, i)
}

// next returns the node's marked next-pointer field.
func (l list) next(n core.Val) flit.Var { return l.field(n, l.width-1) }

// search returns the field holding the pointer to the first unmarked node
// with key ≥ k (pred), that node (nilPtr when none) and its key (noKey
// when none). Marked nodes met on the way are physically unlinked.
func (l list) search(se *flit.Session, head flit.Var, k core.Val) (pred flit.Var, cur, key core.Val, err error) {
retry:
	for {
		pred = head
		e, err := se.Load(pred)
		if err != nil {
			return flit.Var{}, nilPtr, noKey, err
		}
		cur, _ = dec(e)
		for cur != nilPtr {
			e, err := se.Load(l.next(cur))
			if err != nil {
				return flit.Var{}, nilPtr, noKey, err
			}
			next, marked := dec(e)
			if marked {
				// Snip the logically deleted node.
				ok, err := se.CAS(pred, enc(cur, false), enc(next, false))
				if err != nil {
					return flit.Var{}, nilPtr, noKey, err
				}
				if !ok {
					continue retry
				}
				cur = next
				continue
			}
			if key, err = se.Load(l.field(cur, 0)); err != nil || key >= k {
				return pred, cur, key, err
			}
			pred, cur = l.next(cur), next
		}
		return pred, nilPtr, noKey, nil
	}
}

// link inserts a node holding k and the payload fields, unless an
// unmarked node holds k already: it returns that node, or nilPtr when it
// linked a new one. The new node's fields are stored privately, and one
// CAS on its predecessor publishes it.
func (l list) link(se *flit.Session, head flit.Var, k core.Val, payload ...core.Val) (core.Val, error) {
	for {
		pred, cur, key, err := l.search(se, head, k)
		if err != nil || key == k {
			return cur, err
		}
		base, err := l.h.AllocNode(l.width)
		if err != nil {
			return nilPtr, err
		}
		fields := append(append([]core.Val{k}, payload...), enc(cur, false))
		for i, v := range fields {
			if err := se.PrivateStore(l.field(ptr(base), i), v); err != nil {
				return nilPtr, err
			}
		}
		ok, err := se.CAS(pred, enc(cur, false), enc(ptr(base), false))
		if err != nil || ok {
			return nilPtr, err
		}
	}
}

// unlink removes k's unmarked node and reports whether there was one.
// Marking the node's next pointer is the linearization point; the CAS
// that then unlinks it may fail, which leaves it to later searches.
func (l list) unlink(se *flit.Session, head flit.Var, k core.Val) (bool, error) {
	for {
		pred, cur, key, err := l.search(se, head, k)
		if err != nil || key != k {
			return false, err
		}
		e, err := se.Load(l.next(cur))
		if err != nil {
			return false, err
		}
		next, marked := dec(e)
		if marked {
			continue // someone else is removing it; retry to settle
		}
		ok, err := se.CAS(l.next(cur), enc(next, false), enc(next, true))
		if err != nil {
			return false, err
		}
		if ok {
			_, err := se.CAS(pred, enc(cur, false), enc(next, false))
			return true, err
		}
	}
}

// lookup returns k's unmarked node, or nilPtr when there is none. It only
// reads, so it is wait-free in the length of the list.
func (l list) lookup(se *flit.Session, head flit.Var, k core.Val) (found core.Val, err error) {
	err = l.walk(se, head, func(n, key core.Val, live bool) (bool, error) {
		if key == k && live {
			found = n
			return false, nil
		}
		return key <= k, nil
	})
	return found, err
}

// walk visits the nodes in list order, marked ones included (live is
// false for those), until visit returns false or an error. It snips
// nothing.
func (l list) walk(se *flit.Session, head flit.Var, visit func(n, key core.Val, live bool) (bool, error)) error {
	e, err := se.Load(head)
	if err != nil {
		return err
	}
	cur, _ := dec(e)
	for cur != nilPtr {
		key, err := se.Load(l.field(cur, 0))
		if err != nil {
			return err
		}
		e, err := se.Load(l.next(cur))
		if err != nil {
			return err
		}
		next, marked := dec(e)
		if more, err := visit(cur, key, !marked); err != nil || !more {
			return err
		}
		cur = next
	}
	return nil
}

// done ends a Set or Map operation that reports ok: an error passes
// through, and success completes the session's operation.
func done(se *flit.Session, ok bool, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return ok, se.Complete()
}
