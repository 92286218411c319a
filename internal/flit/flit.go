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
// Six strategies are provided, each one row of the rules table:
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
// # The rules table
//
// NewSession resolves the strategy's row once; every wrapper reads its
// decisions from the row, and none tests the strategy. A row states:
//
//	               flush                shared write  load helps  epoch guard
//	CXL0FliT       RFlush               Algorithm 2   counter     yes
//	CXL0FliTOpt    §6.1 LFlush/RFlush   Algorithm 2   counter     yes
//	MStoreAll      none                 persistent    never       no
//	FlushOnRead    RFlush               Algorithm 2   always      yes
//	OriginalFliT   LFlush               Algorithm 1   counter     no
//	NoPersist      none                 cached        never       no
//
// "§6.1 LFlush/RFlush" is an LFlush when the issuer owns x, an RFlush
// otherwise. A load helps by flushing x after reading it: never, when x's
// counter is raised, or always. The epoch guard reruns a load or private
// store of remote x whose owner crashed meanwhile.
//
// Store, CAS and FAA differ only in their primitive; each hands it to one
// function, Session.write, which applies the row's shared-write rule:
//
//	cached       cached write
//	persistent   persistent write (MStore / M-RMW)
//	Algorithm 2  remote x: persistent write;
//	             owner-local x: [ctrInc ;] cached write ; flush [; ctrDec]
//	Algorithm 1  [ctrInc ;] cached write ; flush [; ctrDec]
//
// A CAS that wrote nothing skips the flush. The bracketed ctrInc and
// ctrDec are taken only by rows whose loads help when the counter is
// raised: a counter serves only readers that check it. FlushOnRead's
// readers flush unconditionally, so its owner-local writes are a cached
// write and a flush. PrivateStore is a cached write and flush under the
// epoch guard, an MStore under the persistent rule.
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

// flushKind is what a rule's flush of x issues.
type flushKind int

const (
	// flushNone issues nothing: the rule either writes persistently or
	// persists nothing.
	flushNone flushKind = iota
	// flushRemote is an RFlush, which forces x to its owner's persistent
	// memory wherever x lives.
	flushRemote
	// flushOwnerLocal is §6.1's substitution: an LFlush when the issuing
	// machine owns x (the owner's local flush reaches its own persistent
	// memory), an RFlush otherwise.
	flushOwnerLocal
	// flushLocal is Algorithm 1's Flush, an LFlush: it reaches only the
	// next hierarchy level — not necessarily persistence, which is the
	// bug under partial crashes.
	flushLocal
)

// writeRule is how a shared write (Store, CAS, FAA) persists.
type writeRule int

const (
	// writeCached is a cached write and nothing more.
	writeCached writeRule = iota
	// writePersistent is the persistent primitive (MStore / M-RMW)
	// wherever x lives.
	writePersistent
	// writeAlg2 is Algorithm 2's rule: the persistent primitive when x is
	// remote, a cached write and flush when x is owner-local.
	writeAlg2
	// writeAlg1 is Algorithm 1's rule: a cached write and flush wherever
	// x lives.
	writeAlg1
)

// helpRule is when a shared load helps an in-flight store persist by
// flushing x.
type helpRule int

const (
	helpNever   helpRule = iota
	helpCounter          // when x's FliT counter is raised
	helpAlways
)

// rule is one strategy's row: its name, its soundness and every decision
// the session wrappers make from it.
type rule struct {
	name string
	// sound says the strategy guarantees durable linearizability under
	// CXL0's partial-crash model.
	sound bool
	flush flushKind
	write writeRule
	help  helpRule
	// guarded says loads and private stores of remote x carry the owner's
	// crash-epoch guard.
	guarded bool
}

// rules is the strategy table, indexed by Strategy: the one place a
// strategy's name and persistence rules are stated.
var rules = [...]rule{
	CXL0FliT:     {"cxl0-flit", true, flushRemote, writeAlg2, helpCounter, true},
	CXL0FliTOpt:  {"cxl0-flit-opt", true, flushOwnerLocal, writeAlg2, helpCounter, true},
	MStoreAll:    {"mstore-all", true, flushNone, writePersistent, helpNever, false},
	FlushOnRead:  {"flush-on-read", true, flushRemote, writeAlg2, helpAlways, true},
	OriginalFliT: {"original-flit", false, flushLocal, writeAlg1, helpCounter, false},
	NoPersist:    {"no-persist", false, flushNone, writeCached, helpNever, false},
}

// row returns s's rule, or an error naming s if it is outside the
// declared strategies.
func (s Strategy) row() (rule, error) {
	if s < 0 || int(s) >= len(rules) {
		return rule{}, fmt.Errorf("flit: unknown strategy Strategy(%d)", int(s))
	}
	return rules[s], nil
}

func (s Strategy) String() string {
	if r, err := s.row(); err == nil {
		return r.name
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all persistence strategies.
var Strategies = []Strategy{CXL0FliT, CXL0FliTOpt, MStoreAll, FlushOnRead, OriginalFliT, NoPersist}

// Correct reports whether the strategy guarantees durable linearizability
// under CXL0's partial-crash model.
func (s Strategy) Correct() bool {
	r, _ := s.row()
	return r.sound
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
	T *memsim.Thread
	r rule // the strategy's row, resolved once by NewSession
}

// NewSession returns a session applying strategy s on thread t. It panics
// on a strategy outside Strategies, which would otherwise persist nothing
// without a word.
func NewSession(s Strategy, t *memsim.Thread) *Session {
	r, err := s.row()
	if err != nil {
		panic(err)
	}
	return &Session{T: t, r: r}
}

// flush performs the rule's flush of x (the pflag-tagged path).
func (se *Session) flush(x Var) error {
	switch f := se.r.flush; {
	case f == flushLocal, f == flushOwnerLocal && se.T.Local(x.Data):
		return se.T.LFlush(x.Data)
	case f != flushNone:
		return se.T.RFlush(x.Data)
	}
	return nil
}

// ownerEpoch returns the crash epoch of x's owner.
func (se *Session) ownerEpoch(x Var) uint64 {
	c := se.T.Cluster()
	return c.Epoch(c.Owner(x.Data))
}

// guard runs op once, or, under a guarded rule with x remote, until x's
// owner keeps its crash epoch across op: if the owner crashed in between,
// the value op observed or wrote (and, under poisoning, the issuer's own
// cached copy) may have been destroyed, so op reruns against the
// recovered state. Owner-local x needs no guard — only the issuer's own
// crash can destroy its copy, and that kills the thread itself.
func (se *Session) guard(x Var, op func() (core.Val, error)) (core.Val, error) {
	if !se.r.guarded || se.T.Local(x.Data) {
		return op()
	}
	for {
		epoch := se.ownerEpoch(x)
		if v, err := op(); err != nil || se.ownerEpoch(x) == epoch {
			return v, err
		}
	}
}

// Load is shared_load with pflag set: a load of x, then the rule's
// helping flush — never, when x's counter is raised, or always — under
// the rule's crash-epoch guard.
func (se *Session) Load(x Var) (core.Val, error) {
	return se.guard(x, func() (core.Val, error) {
		v, err := se.T.Load(x.Data)
		if err != nil {
			return 0, err
		}
		help := se.r.help == helpAlways
		if se.r.help == helpCounter {
			ctr, err := se.T.Load(x.Ctr)
			if err != nil {
				return 0, err
			}
			help = ctr > 0
		}
		if help {
			if err := se.flush(x); err != nil {
				return 0, err
			}
		}
		return v, nil
	})
}

// ctrInc increments x's FliT counter. For remote counters the sound
// strategies persist the increment (see the package comment on counter
// crash-robustness). An owner-local increment may stay cached: the only
// crash that can roll it back is the owner's own, which readers already
// detect through their crash-epoch guard (and which kills the incrementing
// thread).
func (se *Session) ctrInc(x Var) error {
	_, err := se.T.FAA(rmw(se.r.sound && !se.T.Local(x.Ctr)), x.Ctr, 1)
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

// write applies the rule's write rule (see the package comment) to one
// shared write of x. prim performs the write — persistent (MStore /
// M-RMW) when asked, cached (LStore / L-RMW) otherwise — and reports
// whether it wrote anything; the flush is skipped when it did not (a
// failed CAS).
//
// Algorithm 2 takes the persistent primitive for remote writes because
// the write-then-flush sequence has a window in which the owner's crash
// can destroy the value after readers observed (and possibly helped
// persist) it, and a blind retry then applies the write a second time —
// the crash-injection harness exhibits both the loss and the double-apply
// as durable-linearizability violations; for an RMW, which is a
// linearization point, the retry's outcome is ambiguous besides. The
// cheap cached path survives for owner-local data, where the only crash
// that can destroy the cached value also kills the issuing thread.
func (se *Session) write(x Var, prim func(persist bool) (wrote bool, err error)) error {
	switch w := se.r.write; {
	case w == writeCached, w == writePersistent, w == writeAlg2 && !se.T.Local(x.Data):
		_, err := prim(w != writeCached)
		return err
	}
	bracket := se.r.help == helpCounter // a counter serves only readers that check it
	if bracket {
		if err := se.ctrInc(x); err != nil {
			return err
		}
	}
	wrote, err := prim(false)
	if err == nil && wrote {
		err = se.flush(x)
	}
	if err != nil || !bracket {
		return err
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

// Store is shared_store with pflag set.
func (se *Session) Store(x Var, v core.Val) error {
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
// counter (the location is never accessed concurrently), under the rule's
// crash-epoch guard. The retry is sound only because private data has no
// concurrent observers — for shared stores a retry can double-apply an
// already-observed write, which is why Algorithm 2's remote shared stores
// use MStore instead. A persistent-write rule stores with MStore.
func (se *Session) PrivateStore(x Var, v core.Val) error {
	if se.r.write == writePersistent {
		return se.T.MStore(x.Data, v)
	}
	_, err := se.guard(x, func() (core.Val, error) {
		if err := se.T.LStore(x.Data, v); err != nil {
			return 0, err
		}
		return 0, se.flush(x)
	})
	return err
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
