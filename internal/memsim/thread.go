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

// checkOpLocked gates one single-location primitive: the thread's machine
// must be alive and the target line's owner reachable from it. The checks
// run before any state mutation or cost charge, so a failed operation has
// no effect at all — like an op rejected by a dead machine.
func (t *Thread) checkOpLocked(x core.LocID) error {
	if err := t.checkAliveLocked(); err != nil {
		return err
	}
	return t.c.reachableLocked(t.m, x)
}

// applyLocked performs a deterministic labeled step, which must be enabled.
func (t *Thread) applyLocked(l core.Label) {
	if !core.ApplyInPlace(t.c.st, l, t.c.cfg.Variant) {
		panic(fmt.Sprintf("memsim: %v not enabled in %v", l, t.c.st))
	}
}

// drainLocked forces propagation steps until location x is absent from the
// caches selected by all (every cache vs. just this thread's). This is how
// the runtime executes the paper's "blocking" flush semantics: the flush
// waits for (here: forces) the nondeterministic propagation it depends on.
func (t *Thread) drainLocked(x core.LocID, all bool) {
	owner := t.c.topo.Owner(x)
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
	if err := t.checkOpLocked(x); err != nil {
		return 0, err
	}
	return t.loadLocked(x), nil
}

// loadLocked performs the variant's load of x — a Load, and a CAS whose
// compare fails (§3.3: a failed RMW is a plain read) — and returns what it
// observed.
func (t *Thread) loadLocked(x core.LocID) core.Val {
	cached := t.c.hotLocked(t.m, x)
	var v core.Val
	if t.c.cfg.Variant == core.LWB {
		// Implicit write-back: a load never reads a peer's cache; if the
		// line is cached remotely the hardware drains it to memory first.
		if own := t.c.st.Cache(t.m, x); own != core.Bot {
			v = own
		} else {
			t.drainLocked(x, true)
			v = t.c.st.Mem(x)
		}
	} else {
		v = t.c.st.Readable(x)
	}
	t.applyLocked(core.LoadL(t.m, x, v))
	t.c.warmLocked(t.m, x)
	t.c.chargeLocked(core.OpLoad, t.c.topo.Owner(x), t.Local(x), cached)
	t.c.maybeEvictLocked()
	return v
}

func (t *Thread) store(op core.Op, x core.LocID, v core.Val) error {
	if v < 0 {
		return fmt.Errorf("memsim: negative value %d (values must be non-negative)", v)
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if err := t.checkOpLocked(x); err != nil {
		return err
	}
	t.applyLocked(core.Label{Op: op, M: t.m, Loc: x, Val: v})
	switch op {
	case core.OpLStore:
		t.c.warmLocked(t.m, x)
		t.c.coolExceptLocked(t.m, x)
	case core.OpRStore:
		owner := t.c.topo.Owner(x)
		t.c.warmLocked(owner, x)
		t.c.coolExceptLocked(owner, x)
	case core.OpMStore:
		t.c.coolAllLocked(x)
	default:
		// Only the three store ops reach this path; a new op added to
		// the instruction set must decide its hot-line overlay effect
		// here explicitly.
	}
	t.c.chargeLocked(op, t.c.topo.Owner(x), t.Local(x), false)
	t.c.maybeEvictLocked()
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

// LFlush drains x from this machine's cache to the next level (the owner's
// cache, or local memory when this machine owns x).
func (t *Thread) LFlush(x core.LocID) error {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if err := t.checkOpLocked(x); err != nil {
		return err
	}
	t.drainLocked(x, false)
	t.applyLocked(core.LFlushL(t.m, x))
	t.c.hot[t.m].Remove(x)
	t.c.chargeLocked(core.OpLFlush, t.c.topo.Owner(x), t.Local(x), false)
	t.c.maybeEvictLocked()
	return nil
}

// RFlush drains x from every cache into the owner's physical memory; x is
// persistent on return.
func (t *Thread) RFlush(x core.LocID) error {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if err := t.checkOpLocked(x); err != nil {
		return err
	}
	t.drainLocked(x, true)
	t.applyLocked(core.RFlushL(t.m, x))
	t.c.coolAllLocked(x)
	t.c.chargeLocked(core.OpRFlush, t.c.topo.Owner(x), t.Local(x), false)
	t.c.maybeEvictLocked()
	return nil
}

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
	for i := 0; i < n; i++ {
		if err := t.c.reachableLocked(t.m, base+core.LocID(i)); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		t.drainLocked(base+core.LocID(i), true)
	}
	t.applyLocked(core.RFlushRangeL(t.m, base, n))
	for i := 0; i < n; i++ {
		t.c.coolAllLocked(base + core.LocID(i))
	}
	t.c.chargeRangedFlushLocked(t.m, base, n)
	t.c.maybeEvictLocked()
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
	// Force propagation until nothing is cached. Lines drain independently
	// and a drain draws no randomness, so taking whichever step is first
	// ends in the same state as draining location by location.
	for t.c.st.TauStepCount() > 0 {
		t.c.applyTauLocked(t.c.st.TauStepAt(0))
	}
	t.applyLocked(core.GPFL(t.m))
	t.c.chargeGPFLocked()
	return nil
}

// rmwHotLocked updates the performance-cache overlay after an RMW's store
// half.
func (t *Thread) rmwHotLocked(op core.Op, x core.LocID) {
	switch op {
	case core.OpLRMW:
		t.c.warmLocked(t.m, x)
		t.c.coolExceptLocked(t.m, x)
	case core.OpRRMW:
		owner := t.c.topo.Owner(x)
		t.c.warmLocked(owner, x)
		t.c.coolExceptLocked(owner, x)
	case core.OpMRMW:
		t.c.coolAllLocked(x)
	default:
		// Only the three RMW ops have a store half; a new op added to
		// the instruction set must decide its overlay effect here.
	}
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
	if err := t.checkOpLocked(x); err != nil {
		return false, err
	}
	cached := t.c.hotLocked(t.m, x)
	if t.c.st.Readable(x) != old {
		// Failed RMW ≡ plain read (§3.3): the line is pulled like a load.
		t.loadLocked(x)
		return false, nil
	}
	t.applyLocked(core.RMWL(op, t.m, x, old, new))
	t.rmwHotLocked(op, x)
	t.c.chargeLocked(op, t.c.topo.Owner(x), t.Local(x), cached)
	t.c.maybeEvictLocked()
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
	if err := t.checkOpLocked(x); err != nil {
		return 0, err
	}
	cached := t.c.hotLocked(t.m, x)
	cur := t.c.st.Readable(x)
	if cur+delta < 0 {
		return 0, fmt.Errorf("memsim: FAA would produce negative value %d", cur+delta)
	}
	t.applyLocked(core.RMWL(op, t.m, x, cur, cur+delta))
	t.rmwHotLocked(op, x)
	t.c.chargeLocked(op, t.c.topo.Owner(x), t.Local(x), cached)
	t.c.maybeEvictLocked()
	return cur, nil
}
