package ds

import (
	"cxl0/internal/core"
	"cxl0/internal/flit"
)

// Log is a durably linearizable bounded append-only log — the structure a
// CXL memory pool most naturally hosts (journals, replication streams,
// write-ahead logs).
//
// Appends claim a slot with a persistent fetch-and-add, write the entry
// into the (exclusively owned, hence private) slot, and then advance the
// contiguous commit frontier. An append is durable when it returns; an
// append cut short by a crash leaves a hole that Recover seals with a
// tombstone (the zero value), so readers skip it. Entries must be ≥ 1.
type Log struct {
	h     *flit.Heap
	claim flit.Var // next slot to claim
	done  flit.Var // commit frontier: entries below this index are final
	slots core.LocID
	cap   int
}

// NewLog allocates a log with the given capacity on the heap's machine.
func NewLog(h *flit.Heap, capacity int) (*Log, error) {
	if capacity <= 0 {
		capacity = 64
	}
	vars, err := h.AllocVars(2)
	if err != nil {
		return nil, err
	}
	slots, err := h.AllocNode(capacity)
	if err != nil {
		return nil, err
	}
	return &Log{h: h, claim: vars[0], done: vars[1], slots: slots, cap: capacity}, nil
}

// Append adds v (≥ 1) and returns its index. It returns ErrCorrupt when
// the log is full. The entry is persistent when Append returns.
func (l *Log) Append(se *flit.Session, v core.Val) (int, error) {
	if v < 1 {
		return 0, ErrNegative
	}
	idx, err := se.FAA(l.claim, 1) // persistent claim
	if err != nil {
		return 0, err
	}
	if int(idx) >= l.cap {
		return 0, ErrCorrupt
	}
	// The slot is exclusively ours until committed: a private store.
	if err := se.PrivateStore(l.h.FieldVar(l.slots, int(idx)), v); err != nil {
		return 0, err
	}
	// Advance the commit frontier past our slot; predecessors first.
	for {
		ok, err := se.CAS(l.done, idx, idx+1)
		if err != nil {
			return 0, err
		}
		if ok {
			return int(idx), se.Complete()
		}
		cur, err := se.Load(l.done)
		if err != nil {
			return 0, err
		}
		if cur > idx {
			// Someone (recovery) already committed past us.
			return int(idx), se.Complete()
		}
	}
}

// Len returns the number of committed entries.
func (l *Log) Len(se *flit.Session) (int, error) {
	n, err := se.Load(l.done)
	return int(n), err
}

// Get returns entry i; ok is false for tombstones (appends that died
// mid-flight and were sealed by Recover).
func (l *Log) Get(se *flit.Session, i int) (v core.Val, ok bool, err error) {
	n, err := l.Len(se)
	if err != nil {
		return 0, false, err
	}
	if i < 0 || i >= n {
		return 0, false, ErrCorrupt
	}
	v, err = se.PrivateLoad(l.h.FieldVar(l.slots, i))
	if err != nil {
		return 0, false, err
	}
	return v, v != 0, nil
}

// Recover seals holes left by appenders that crashed between claiming a
// slot and committing it: every claimed-but-uncommitted slot is committed
// as-is (its write may or may not have persisted; an empty slot reads as a
// tombstone). After Recover the commit frontier equals the claim counter
// and new appends proceed.
func (l *Log) Recover(se *flit.Session) error {
	claimed, err := se.Load(l.claim)
	if err != nil {
		return err
	}
	if int(claimed) > l.cap {
		claimed = core.Val(l.cap)
	}
	for {
		cur, err := se.Load(l.done)
		if err != nil {
			return err
		}
		if cur >= claimed {
			return nil
		}
		// Persist whatever the slot holds (value or tombstone) and move on.
		slot := l.h.FieldVar(l.slots, int(cur))
		v, err := se.PrivateLoad(slot)
		if err != nil {
			return err
		}
		if err := se.PrivateStore(slot, v); err != nil {
			return err
		}
		if _, err := se.CAS(l.done, cur, cur+1); err != nil {
			return err
		}
	}
}

// Snapshot returns all committed non-tombstone entries in order.
func (l *Log) Snapshot(se *flit.Session) ([]core.Val, error) {
	n, err := l.Len(se)
	if err != nil {
		return nil, err
	}
	var out []core.Val
	for i := 0; i < n; i++ {
		v, ok, err := l.Get(se, i)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}
