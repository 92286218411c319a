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

// reachLocked is beginLocked's owner check for a range: it resolves the
// owner of line x, and past, the line up to which that owner owns every
// line from x on (core.Topology.OwnerThrough), and checks that the
// thread's machine reaches the owner. LoadWords and StoreWords ask it once
// per owner's stretch of their range.
func (t *Thread) reachLocked(x core.LocID) (owner core.MachineID, past core.LocID, err error) {
	owner, past = t.c.topo.OwnerThrough(x)
	return owner, past, t.c.reachableLocked(t.m, owner)
}

// checkRange rejects a range of n locations from base that is empty or not
// inside the topology. n is compared with what is left past base: base+n
// can overflow.
func (t *Thread) checkRange(prim string, base core.LocID, n int) error {
	if n < 1 {
		return fmt.Errorf("memsim: %s needs n >= 1, got %d", prim, n)
	}
	if locs := t.c.topo.NumLocs(); int(base) < 0 || n > locs-int(base) {
		return fmt.Errorf("memsim: %s of %d locations from %d is outside the %d allocated",
			prim, n, base, locs)
	}
	return nil
}

// drainLocked forces propagation steps until location x, a line of
// owner's, is absent from the caches selected by all (every cache vs. just
// this thread's). This is how the runtime executes the paper's "blocking"
// semantics: the flush, or the LWB load, waits for (here: forces) the
// nondeterministic propagation it depends on. Every cache is emptied by
// the one drain a ranged flush also takes, core.State.DrainRange over the
// single line, which asks only the machines the state's holder mask names:
// a copy the owner lacks moves to the owner's cache from its lowest
// holder, whose write-back then clears every other copy — each a one-bit
// word step.
func (t *Thread) drainLocked(x core.LocID, owner core.MachineID, all bool) {
	if !all {
		if t.c.st.Cache(t.m, x) != core.Bot {
			t.c.applyTauLocked(core.TauStep{From: t.m, Loc: x, ToMemory: t.m == owner}.AsWord())
		}
		return
	}
	t.c.st.DrainRange(x, x+1, t.c.applyTauLocked)
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

// LoadWords reads the len(dst) consecutive locations from base into dst, in
// ascending order, under one take of the cluster lock: each is the Load a
// loop over them would take — a load's cost depends on whether its line
// was cached, and an LWB load may drain first, so they are not merged. On
// an error dst holds the words read before it, as the loop would.
func (t *Thread) LoadWords(base core.LocID, dst []core.Val) error {
	if err := t.checkRange("LoadWords", base, len(dst)); err != nil {
		return err
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if err := t.checkAliveLocked(); err != nil {
		return err
	}
	for i := 0; i < len(dst); {
		x := base + core.LocID(i)
		owner, past, err := t.reachLocked(x)
		if err != nil {
			return err
		}
		for ; i < len(dst) && x < past; i, x = i+1, x+1 {
			dst[i] = t.loadLocked(x, owner)
		}
	}
	return nil
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

// StoreWords stores vals to the len(vals) consecutive locations from base
// with the store op (OpLStore, OpRStore or OpMStore), under one take of the
// cluster lock, and ends where a loop of that store over them would: the
// same state, overlay, clock, counts and eviction draws. The stores of one
// occupancy word and one owner's stretch that no eviction draw separates
// are one word step (Cluster.storeLocked). A bad argument — an op that is
// not a store, no value, a negative one, a range outside the topology — is
// rejected before any effect; a dead issuer stores nothing, and an owner
// it cannot reach stops it after the words before that owner's, as the
// loop would.
func (t *Thread) StoreWords(op core.Op, base core.LocID, vals []core.Val) error {
	if !op.IsStore() {
		return fmt.Errorf("memsim: StoreWords requires a store op, got %v", op)
	}
	if err := t.checkRange("StoreWords", base, len(vals)); err != nil {
		return err
	}
	for _, v := range vals {
		if v < 0 {
			return fmt.Errorf("memsim: negative value %d (values must be non-negative)", v)
		}
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if len(vals) == 1 {
		// One word has no owner's stretch or eviction draw to cut at.
		owner, err := t.beginLocked(base)
		if err != nil {
			return err
		}
		t.c.storeLocked(op, t.m, owner, base, vals)
		return nil
	}
	if err := t.checkAliveLocked(); err != nil {
		return err
	}
	for len(vals) > 0 {
		owner, past, err := t.reachLocked(base)
		if err != nil {
			return err
		}
		n := min(len(vals), int(past-base), 64-int(base)&63, t.c.untilDrawLocked())
		t.c.storeLocked(op, t.m, owner, base, vals[:n])
		base, vals = base+core.LocID(n), vals[n:]
	}
	return nil
}

// LStore stores v into the thread's local cache; it may be lost on crash
// until flushed or evicted towards the owner's memory.
func (t *Thread) LStore(x core.LocID, v core.Val) error {
	return t.StoreWords(core.OpLStore, x, []core.Val{v})
}

// RStore stores v into the owner's cache.
func (t *Thread) RStore(x core.LocID, v core.Val) error {
	return t.StoreWords(core.OpRStore, x, []core.Val{v})
}

// MStore stores v into the owner's physical memory; it is persistent on
// return.
func (t *Thread) MStore(x core.LocID, v core.Val) error {
	return t.StoreWords(core.OpMStore, x, []core.Val{v})
}

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
	if err := t.checkRange("RFlushRange", base, n); err != nil {
		return err
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
	t.c.st.DrainRange(base, end, t.c.applyTauLocked)
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
