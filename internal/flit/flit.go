// Package flit implements the paper's §6: the FliT transformation adapted
// to CXL0 (Algorithm 2), which equips any linearizable object with durable
// linearizability in the partial-crash model, plus the baselines the paper
// discusses.
//
// The transformation wraps every memory access of an already-linearizable
// object:
//
//	shared_store(x,v):  flit_counter(x)++ ; LStore(x,v) ; RFlush(x) ; flit_counter(x)--
//	shared_load(x):     v := Load(x) ; if flit_counter(x) > 0 { RFlush(x) } ; return v
//	private_store(x,v): LStore(x,v) ; RFlush(x)
//	private_load(x):    Load(x)
//	completeOp():       (empty under CXL0's in-order, synchronous flushes)
//
// The per-variable FliT counter tells readers that a store may be globally
// visible but not yet persistent; a reader that observes a positive counter
// helps by flushing before its own operation completes, which is exactly
// what durable linearizability requires.
//
// Six strategies are provided:
//
//	CXL0FliT      — Algorithm 2 as above (correct).
//	CXL0FliTOpt   — Algorithm 2 with the §6.1 optimisation: RFlush is
//	                replaced by LFlush for locations owned by the issuing
//	                machine, where the owner's local flush already forces
//	                propagation to local persistent memory (correct).
//	MStoreAll     — every store is an MStore (correct, even without
//	                inter-host coherence, but pays the full memory round
//	                trip on every write).
//	FlushOnRead   — the Izraelevitz-style construction FliT improves on:
//	                every shared access, including loads, is followed by a
//	                synchronous RFlush (correct, but reads pay the full
//	                persistence round trip that FliT's counter avoids).
//	OriginalFliT  — the unmodified x86 FliT (Algorithm 1), whose Flush is a
//	                local flush: INCORRECT under partial crashes, because a
//	                flushed value may still sit in the remote owner's
//	                volatile cache when the owner crashes. Provided to
//	                reproduce the paper's motivating failure.
//	NoPersist     — plain loads and stores with no flushing (incorrect;
//	                the untransformed legacy object).
//
// # The write rule
//
// Store, CAS and FAA differ only in their primitive; each hands it to one
// function, Session.write, which decides how the write persists from the
// strategy and from where x lives:
//
//	NoPersist                            cached write
//	MStoreAll; sound strategy, remote x  persistent write (MStore / M-RMW)
//	OriginalFliT; sound strategy, local  ctrInc ; cached write ; flush ; ctrDec
//
// A CAS that wrote nothing skips the flush. The one exception is
// FlushOnRead's owner-local Store, an LStore and a flush with no counter:
// its readers flush unconditionally.
//
// As in the original FliT library, counters live in a fixed hashed counter
// table (one table per heap); distinct variables may share a counter, which
// only ever causes spurious helping flushes, never missed ones.
//
// # Counter crash-robustness (a partial-crash subtlety)
//
// Under the partial-crash model the counter itself needs care that the
// full-system-crash setting never did: a counter INCREMENT performed with a
// plain cached RMW lives in the incrementing machine's cache, so a crash
// can roll the counter back to zero while the in-flight data value is still
// visible in another machine's cache (loads replicate values across
// caches). A reader then sees the new value with a zero counter, skips the
// helping flush, and completes — and a second crash can destroy the value
// it observed, breaking durable linearizability. Our crash-injection
// harness (package crashtest) finds this interleaving mechanically.
//
// The sound strategies therefore persist counter increments (M-RMW): an
// increment can never roll back, so a zero counter really does mean "all
// stores to this counter's variables are persistent". Decrements stay
// cached — losing a decrement only leaves the counter too high, which
// causes spurious helping flushes but never unsound ones. Decrements use a
// CAS loop that skips when the counter already reads zero, so a rolled-back
// increment (possible only under the unsound OriginalFliT) never drives
// the counter negative.
package flit

import (
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/memsim"
)

// Strategy selects a persistence transformation.
type Strategy int

const (
	// CXL0FliT is Algorithm 2 of the paper.
	CXL0FliT Strategy = iota
	// CXL0FliTOpt is Algorithm 2 with owner-local LFlush substitution.
	CXL0FliTOpt
	// MStoreAll replaces every store with MStore.
	MStoreAll
	// FlushOnRead flushes after every shared access, loads included (the
	// Izraelevitz-style general construction).
	FlushOnRead
	// OriginalFliT is the x86 FliT (Algorithm 1) ported verbatim — unsound
	// under partial crashes.
	OriginalFliT
	// NoPersist performs no persistence work at all.
	NoPersist
)

var strategyNames = [...]string{"cxl0-flit", "cxl0-flit-opt", "mstore-all", "flush-on-read", "original-flit", "no-persist"}

func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all persistence strategies.
var Strategies = []Strategy{CXL0FliT, CXL0FliTOpt, MStoreAll, FlushOnRead, OriginalFliT, NoPersist}

// Correct reports whether the strategy guarantees durable linearizability
// under CXL0's partial-crash model.
func (s Strategy) Correct() bool {
	switch s {
	case CXL0FliT, CXL0FliTOpt, MStoreAll, FlushOnRead:
		return true
	}
	return false
}

// Var is a persistent variable: a data location paired with its FliT
// counter location (an entry of the heap's hashed counter table). Counter
// and data live on the same machine.
type Var struct {
	Data core.LocID
	Ctr  core.LocID
}

// ctrTableSize is the number of entries in a heap's counter table. As in
// the FliT library, the table is small enough to stay cached.
const ctrTableSize = 128

// Heap allocates persistent variables on one machine of a cluster and owns
// that machine's FliT counter table.
type Heap struct {
	c    *memsim.Cluster
	m    core.MachineID
	ctrs core.LocID // base of the counter table
	ctrN int        // table entries
}

// NewHeap returns an allocator of Vars on machine m, reserving the
// machine's counter table at the default size.
func NewHeap(c *memsim.Cluster, m core.MachineID) (*Heap, error) {
	return NewHeapSized(c, m, ctrTableSize)
}

// NewHeapSized is NewHeap with an explicit counter-table size. Smaller
// tables save memory but alias more variables onto each counter, which
// makes readers perform spurious helping flushes while unrelated stores
// are in flight (see the counter-table ablation in package flitbench).
func NewHeapSized(c *memsim.Cluster, m core.MachineID, tableSize int) (*Heap, error) {
	if tableSize <= 0 {
		tableSize = ctrTableSize
	}
	base, err := c.Alloc(m, tableSize)
	if err != nil {
		return nil, err
	}
	return &Heap{c: c, m: m, ctrs: base, ctrN: tableSize}, nil
}

// ctrOf hashes a data location into the counter table.
func (h *Heap) ctrOf(data core.LocID) core.LocID {
	x := uint64(data) * 0x9e3779b97f4a7c15
	return h.ctrs + core.LocID(x%uint64(h.ctrN))
}

// Machine returns the machine this heap allocates on.
func (h *Heap) Machine() core.MachineID { return h.m }

// Cluster returns the backing cluster.
func (h *Heap) Cluster() *memsim.Cluster { return h.c }

// AllocVar reserves one persistent variable.
func (h *Heap) AllocVar() (Var, error) {
	base, err := h.c.Alloc(h.m, 1)
	if err != nil {
		return Var{}, err
	}
	return Var{Data: base, Ctr: h.ctrOf(base)}, nil
}

// AllocNode reserves nfields consecutive persistent variables in one
// atomic allocation and returns the base location; field i is
// h.FieldVar(base, i). Data structures use this for multi-field nodes so
// that field layout survives concurrent allocation.
func (h *Heap) AllocNode(nfields int) (core.LocID, error) {
	return h.c.Alloc(h.m, nfields)
}

// FieldVar returns the i-th persistent variable of a node allocated with
// AllocNode.
func (h *Heap) FieldVar(base core.LocID, i int) Var {
	d := base + core.LocID(i)
	return Var{Data: d, Ctr: h.ctrOf(d)}
}

// AllocVars reserves n persistent variables.
func (h *Heap) AllocVars(n int) ([]Var, error) {
	out := make([]Var, n)
	for i := range out {
		v, err := h.AllocVar()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Session binds a strategy to an executing thread; data-structure
// operations run inside a session. Sessions are cheap and not safe for
// concurrent use (use one per goroutine, like a thread).
type Session struct {
	S Strategy
	T *memsim.Thread
}

// NewSession returns a session applying strategy s on thread t.
func NewSession(s Strategy, t *memsim.Thread) *Session { return &Session{S: s, T: t} }

// flush performs the strategy's flush for x (the pflag-tagged path).
func (se *Session) flush(x Var) error {
	switch se.S {
	case CXL0FliT, FlushOnRead:
		return se.T.RFlush(x.Data)
	case CXL0FliTOpt:
		if se.T.Local(x.Data) {
			return se.T.LFlush(x.Data)
		}
		return se.T.RFlush(x.Data)
	case OriginalFliT:
		// Algorithm 1's Flush reaches only the next hierarchy level — not
		// necessarily persistence. This is the bug under partial crashes.
		return se.T.LFlush(x.Data)
	}
	return nil
}

// ownerEpoch returns the crash epoch of x's owner.
func (se *Session) ownerEpoch(x Var) uint64 {
	c := se.T.Cluster()
	return c.Epoch(c.Owner(x.Data))
}

// Load is shared_load with pflag set.
//
// For the sound strategies the load is guarded by the owner's crash epoch:
// if the owner crashed between the data read and the helping flush, the
// value the reader observed (and its own cached copy, under poisoning) may
// have been destroyed, so the read restarts. Owner-local reads need no
// guard — only the reader's own crash can destroy its copy, and that kills
// the thread itself.
func (se *Session) Load(x Var) (core.Val, error) {
	switch se.S {
	case MStoreAll, NoPersist:
		return se.T.Load(x.Data)
	case OriginalFliT:
		v, err := se.T.Load(x.Data)
		if err != nil {
			return 0, err
		}
		ctr, err := se.T.Load(x.Ctr)
		if err != nil {
			return 0, err
		}
		if ctr > 0 {
			if err := se.flush(x); err != nil {
				return 0, err
			}
		}
		return v, nil
	}
	local := se.T.Local(x.Data)
	for {
		epoch := se.ownerEpoch(x)
		v, err := se.T.Load(x.Data)
		if err != nil {
			return 0, err
		}
		helped := se.S == FlushOnRead
		if !helped {
			ctr, err := se.T.Load(x.Ctr)
			if err != nil {
				return 0, err
			}
			helped = ctr > 0
		}
		if helped {
			if err := se.flush(x); err != nil {
				return 0, err
			}
		}
		if local || se.ownerEpoch(x) == epoch {
			return v, nil
		}
		// The owner crashed mid-read; retry against the recovered state.
	}
}

// ctrInc increments x's FliT counter. For remote counters the sound
// strategies persist the increment (see the package comment on counter
// crash-robustness). An owner-local increment may stay cached: the only
// crash that can roll it back is the owner's own, which readers already
// detect through their crash-epoch guard (and which kills the incrementing
// thread).
func (se *Session) ctrInc(x Var) error {
	kind := core.OpMRMW
	if se.S == OriginalFliT || se.T.Local(x.Ctr) {
		kind = core.OpLRMW
	}
	_, err := se.T.FAA(kind, x.Ctr, 1)
	return err
}

// ctrDec decrements x's FliT counter, skipping when a crash already rolled
// the increment back (reachable only under OriginalFliT).
func (se *Session) ctrDec(x Var) error {
	for {
		v, err := se.T.Load(x.Ctr)
		if err != nil {
			return err
		}
		if v <= 0 {
			return nil
		}
		ok, err := se.T.CAS(core.OpLRMW, x.Ctr, v, v-1)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
}

// storeAndFlush performs the crash-epoch-guarded LStore + flush sequence
// used for PRIVATE stores: if the owner of x crashed during the window, the
// value may have been destroyed while sitting in the owner's cache (the
// flush then completed vacuously), so the store is re-issued. The retry is
// sound only because private data has no concurrent observers — for shared
// stores a retry can double-apply an already-observed write, which is why
// shared remote stores use MStore instead. Owner-local stores need no
// guard.
func (se *Session) storeAndFlush(x Var, v core.Val) error {
	local := se.T.Local(x.Data)
	for {
		epoch := se.ownerEpoch(x)
		if err := se.T.LStore(x.Data, v); err != nil {
			return err
		}
		if err := se.flush(x); err != nil {
			return err
		}
		if local || se.ownerEpoch(x) == epoch {
			return nil
		}
	}
}

// write applies the write rule of the package comment to one shared write
// of x. prim performs the write — persistent (MStore / M-RMW) when asked,
// cached (LStore / L-RMW) otherwise — and reports whether it wrote
// anything; the flush is skipped when it did not (a failed CAS).
//
// Remote shared writes take the persistent primitive under the sound
// strategies because the write-then-flush sequence has a window in which
// the owner's crash can destroy the value after readers observed (and
// possibly helped persist) it, and a blind retry then applies the write a
// second time — the crash-injection harness exhibits both the loss and the
// double-apply as durable-linearizability violations; for an RMW, which
// is a linearization point, the retry's outcome is ambiguous besides. The
// cheap cached path survives for owner-local data, where the only crash
// that can destroy the cached value also kills the issuing thread.
func (se *Session) write(x Var, prim func(persist bool) (wrote bool, err error)) error {
	switch {
	case se.S == NoPersist:
		_, err := prim(false)
		return err
	case se.S == MStoreAll, se.S != OriginalFliT && !se.T.Local(x.Data):
		_, err := prim(true)
		return err
	}
	if err := se.ctrInc(x); err != nil {
		return err
	}
	wrote, err := prim(false)
	if err != nil {
		return err
	}
	if wrote {
		if err := se.flush(x); err != nil {
			return err
		}
	}
	return se.ctrDec(x)
}

// rmw is the RMW kind write asks for.
func rmw(persist bool) core.Op {
	if persist {
		return core.OpMRMW
	}
	return core.OpLRMW
}

// Store is shared_store with pflag set. FlushOnRead's owner-local store is
// the one exception to write's rule: LStore then flush with no counter,
// since its readers flush unconditionally.
func (se *Session) Store(x Var, v core.Val) error {
	if se.S == FlushOnRead && se.T.Local(x.Data) {
		if err := se.T.LStore(x.Data, v); err != nil {
			return err
		}
		return se.flush(x)
	}
	return se.write(x, func(persist bool) (bool, error) {
		if persist {
			return true, se.T.MStore(x.Data, v)
		}
		return true, se.T.LStore(x.Data, v)
	})
}

// CAS is the shared compare-and-swap wrapper.
func (se *Session) CAS(x Var, old, new core.Val) (bool, error) {
	var ok bool
	err := se.write(x, func(persist bool) (_ bool, err error) {
		ok, err = se.T.CAS(rmw(persist), x.Data, old, new)
		return ok, err
	})
	return ok && err == nil, err
}

// FAA is the shared fetch-and-add wrapper.
func (se *Session) FAA(x Var, delta core.Val) (core.Val, error) {
	var prev core.Val
	err := se.write(x, func(persist bool) (_ bool, err error) {
		prev, err = se.T.FAA(rmw(persist), x.Data, delta)
		return true, err
	})
	if err != nil {
		return 0, err
	}
	return prev, nil
}

// StoreBegin performs the first half of an owner-local shared store —
// counter increment plus the cached store — leaving the variable in its
// vulnerable window (visible but unpersisted, counter raised). Paired with
// StoreFinish. Exposed for experiments and litmus construction (e.g. the
// counter-table false-sharing ablation); production code uses Store.
func (se *Session) StoreBegin(x Var, v core.Val) error {
	if !se.T.Local(x.Data) {
		return fmt.Errorf("flit: StoreBegin requires an owner-local variable")
	}
	if err := se.ctrInc(x); err != nil {
		return err
	}
	return se.T.LStore(x.Data, v)
}

// StoreFinish completes a store begun with StoreBegin: flush, then counter
// decrement.
func (se *Session) StoreFinish(x Var) error {
	if err := se.flush(x); err != nil {
		return err
	}
	return se.ctrDec(x)
}

// PrivateLoad is private_load: no helping, no counter.
func (se *Session) PrivateLoad(x Var) (core.Val, error) { return se.T.Load(x.Data) }

// PrivateStore is private_store with pflag set: store then flush, no
// counter (the location is never accessed concurrently). Sound strategies
// apply the same crash-epoch guard as shared stores.
func (se *Session) PrivateStore(x Var, v core.Val) error {
	switch se.S {
	case NoPersist:
		return se.T.LStore(x.Data, v)
	case MStoreAll:
		return se.T.MStore(x.Data, v)
	case OriginalFliT:
		if err := se.T.LStore(x.Data, v); err != nil {
			return err
		}
		return se.flush(x)
	}
	return se.storeAndFlush(x, v)
}

// Complete is completeOp: empty under CXL0's synchronous flushes (the
// original FliT's trailing MFENCE is unnecessary with in-order execution).
func (se *Session) Complete() error { return nil }

// LoadUnflagged is shared_load with pflag clear: for data that does not
// need durable linearizability (FliT's untagged operations). No counter
// check, no helping flush.
func (se *Session) LoadUnflagged(x Var) (core.Val, error) { return se.T.Load(x.Data) }

// StoreUnflagged is shared_store with pflag clear: a plain cached store
// with no persistence work. The value is visible immediately but may be
// lost in a crash — use only for data whose loss is acceptable (caches,
// hints, statistics).
func (se *Session) StoreUnflagged(x Var, v core.Val) error { return se.T.LStore(x.Data, v) }
