package memsim

import (
	"fmt"

	"cxl0/internal/core"
)

// Thread executes CXL0 primitives on behalf of one machine. Threads are
// cheap handles; create one per goroutine. A thread dies with its machine:
// after Crash(m), all threads bound to m return ErrCrashed forever, and new
// threads (with fresh identity, as the paper prescribes) must be created
// after recovery.
type Thread struct {
	c     *Cluster
	m     core.MachineID
	epoch uint64
}

// Machine returns the machine this thread runs on.
func (t *Thread) Machine() core.MachineID { return t.m }

// Cluster returns the owning cluster.
func (t *Thread) Cluster() *Cluster { return t.c }

// Local reports whether the thread's machine owns location l.
func (t *Thread) Local(l core.LocID) bool { return t.c.topo.Owner(l) == t.m }

func (t *Thread) checkAliveLocked() error {
	if !t.c.alive[t.m] || t.c.epoch[t.m] != t.epoch {
		return ErrCrashed
	}
	return nil
}

// beginLocked gates one single-location primitive and resolves the owner
// of its line, once: the thread's machine must be alive and the owner
// reachable from it. The checks run before any state mutation or cost
// charge, so a failed operation has no effect at all — like an op rejected
// by a dead machine. What follows resolves the primitive to a label
// against the live state and hands it to Cluster.stepLocked.
func (t *Thread) beginLocked(x core.LocID) (core.MachineID, error) {
	if err := t.checkAliveLocked(); err != nil {
		return 0, err
	}
	owner := t.c.topo.Owner(x)
	return owner, t.c.reachableLocked(t.m, owner)
}

// drainLocked forces propagation steps until location x, a line of
// owner's, is absent from the caches selected by all (every cache vs. just
// this thread's). This is how the runtime executes the paper's "blocking"
// semantics: the flush, or the LWB load, waits for (here: forces) the
// nondeterministic propagation it depends on.
func (t *Thread) drainLocked(x core.LocID, owner core.MachineID, all bool) {
	if !all {
		if t.c.st.Cache(t.m, x) != core.Bot {
			t.c.applyTauLocked(core.TauStep{From: t.m, Loc: x, ToMemory: t.m == owner})
		}
		return
	}
	for {
		holder := core.MachineID(-1)
		for m := 0; m < t.c.topo.NumMachines(); m++ {
			if t.c.st.Cache(core.MachineID(m), x) != core.Bot {
				holder = core.MachineID(m)
				break
			}
		}
		if holder < 0 {
			return
		}
		t.c.applyTauLocked(core.TauStep{From: holder, Loc: x, ToMemory: holder == owner})
	}
}

// Load reads location x.
func (t *Thread) Load(x core.LocID) (core.Val, error) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	owner, err := t.beginLocked(x)
	if err != nil {
		return 0, err
	}
	return t.loadLocked(x, owner), nil
}

// loadLocked performs the variant's load of x — a Load, and a CAS whose
// compare fails (§3.3: a failed RMW is a plain read) — and returns what it
// observed.
func (t *Thread) loadLocked(x core.LocID, owner core.MachineID) core.Val {
	cached := t.c.hotLocked(t.m, x)
	v, ok := t.c.st.Observed(t.m, x, t.c.cfg.Variant)
	if !ok {
		// LWB's implicit write-back: a load never reads a peer's cache; the
		// hardware drains the line to memory first.
		t.drainLocked(x, owner, true)
		v = t.c.st.Mem(x)
	}
	t.c.stepLocked(core.LoadL(t.m, x, v), owner, cached)
	return v
}

func (t *Thread) store(op core.Op, x core.LocID, v core.Val) error {
	if v < 0 {
		return fmt.Errorf("memsim: negative value %d (values must be non-negative)", v)
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	owner, err := t.beginLocked(x)
	if err != nil {
		return err
	}
	t.c.stepLocked(core.Label{Op: op, M: t.m, Loc: x, Val: v}, owner, false)
	return nil
}

// LStore stores v into the thread's local cache; it may be lost on crash
// until flushed or evicted towards the owner's memory.
func (t *Thread) LStore(x core.LocID, v core.Val) error { return t.store(core.OpLStore, x, v) }

// RStore stores v into the owner's cache.
func (t *Thread) RStore(x core.LocID, v core.Val) error { return t.store(core.OpRStore, x, v) }

// MStore stores v into the owner's physical memory; it is persistent on
// return.
func (t *Thread) MStore(x core.LocID, v core.Val) error { return t.store(core.OpMStore, x, v) }

// flush drains x from every cache (RFlush) or this machine's (LFlush).
func (t *Thread) flush(op core.Op, x core.LocID) error {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	owner, err := t.beginLocked(x)
	if err != nil {
		return err
	}
	t.drainLocked(x, owner, op == core.OpRFlush)
	t.c.stepLocked(core.Label{Op: op, M: t.m, Loc: x}, owner, false)
	return nil
}

// LFlush drains x from this machine's cache to the next level (the owner's
// cache, or local memory when this machine owns x).
func (t *Thread) LFlush(x core.LocID) error { return t.flush(core.OpLFlush, x) }

// RFlush drains x from every cache into the owner's physical memory; x is
// persistent on return.
func (t *Thread) RFlush(x core.LocID) error { return t.flush(core.OpRFlush, x) }

// RFlushRange drains the n consecutive locations starting at base from
// every cache into their owners' physical memories; the whole range is
// persistent on return. It is the ranged persistent flush of the paper's §7
// sketch: RFlushRange(x, 1) behaves exactly like RFlush(x), and unlike GPF
// only the devices owning lines of the range participate — the simulated
// cost is charged per owning device (one flush command each, plus a
// per-line media write) and is therefore independent of cluster size.
func (t *Thread) RFlushRange(base core.LocID, n int) error {
	if n < 1 {
		return fmt.Errorf("memsim: RFlushRange needs n >= 1, got %d", n)
	}
	// n is compared with what is left past base: base+n can overflow.
	if locs := t.c.topo.NumLocs(); int(base) < 0 || n > locs-int(base) {
		return fmt.Errorf("memsim: RFlushRange of %d locations from %d is outside the %d allocated",
			n, base, locs)
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if err := t.checkAliveLocked(); err != nil {
		return err
	}
	// Every device owning part of the range participates in the flush, so
	// each must be reachable; a partition anywhere in the range fails the
	// whole primitive before anything drains.
	end := base + core.LocID(n)
	var unreachable error
	t.c.topo.OwnerRuns(base, end, func(owner core.MachineID, _, _ core.LocID) {
		if unreachable == nil {
			unreachable = t.c.reachableLocked(t.m, owner)
		}
	})
	if unreachable != nil {
		return unreachable
	}
	t.c.topo.OwnerRuns(base, end, func(owner core.MachineID, lo, hi core.LocID) {
		for x := lo; x < hi; x++ {
			t.drainLocked(x, owner, true)
		}
	})
	t.c.stepLocked(core.RFlushRangeL(t.m, base, n), t.m, false)
	return nil
}

// GPF performs a Global Persistent Flush: every cache in the system drains
// to memory before it returns.
func (t *Thread) GPF() error {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if err := t.checkAliveLocked(); err != nil {
		return err
	}
	// The drain must reach every cache in the system: one partitioned
	// machine anywhere blocks the global flush entirely.
	if err := t.c.fabricWholeLocked(); err != nil {
		return err
	}
	// Force propagation until nothing is cached.
	t.c.st.DrainTau(t.c.applyTauLocked)
	t.c.stepLocked(core.GPFL(t.m), t.m, false)
	return nil
}

// CAS atomically compares-and-swaps x from old to new using the RMW kind in
// op (OpLRMW, OpRRMW or OpMRMW). A failed CAS acts as a plain read.
func (t *Thread) CAS(op core.Op, x core.LocID, old, new core.Val) (bool, error) {
	if !op.IsRMW() {
		return false, fmt.Errorf("memsim: CAS requires an RMW op, got %v", op)
	}
	if new < 0 {
		return false, fmt.Errorf("memsim: negative value %d", new)
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	owner, err := t.beginLocked(x)
	if err != nil {
		return false, err
	}
	if t.c.st.Readable(x) != old {
		// Failed RMW ≡ plain read (§3.3): the line is pulled like a load.
		t.loadLocked(x, owner)
		return false, nil
	}
	t.c.stepLocked(core.RMWL(op, t.m, x, old, new), owner, t.c.hotLocked(t.m, x))
	return true, nil
}

// FAA atomically fetches-and-adds delta to x using the RMW kind in op,
// returning the previous value.
func (t *Thread) FAA(op core.Op, x core.LocID, delta core.Val) (core.Val, error) {
	if !op.IsRMW() {
		return 0, fmt.Errorf("memsim: FAA requires an RMW op, got %v", op)
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	owner, err := t.beginLocked(x)
	if err != nil {
		return 0, err
	}
	cur := t.c.st.Readable(x)
	if cur+delta < 0 {
		return 0, fmt.Errorf("memsim: FAA would produce negative value %d", cur+delta)
	}
	t.c.stepLocked(core.RMWL(op, t.m, x, cur, cur+delta), owner, t.c.hotLocked(t.m, x))
	return cur, nil
}
