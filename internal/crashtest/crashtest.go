// Package crashtest runs the paper's §6 experiment end to end: concurrent
// workloads over FliT-transformed data structures with injected machine
// crashes, checked for durable linearizability.
//
// A run builds a three-machine cluster (two compute nodes and one NVM
// memory host holding the structure), spawns workers issuing randomized
// operations (every third worker on the memory host itself, where the
// structure's data is owner-local), crashes a machine mid-run (the memory
// host, a compute node, or both), recovers, drains/reads the structure,
// and hands the recorded history to the durable-linearizability checker.
//
// Under the correct strategies (Algorithm 2, its §6.1 optimisation, and
// MStore-everything) every run must be durably linearizable. The original
// x86 FliT and the no-persistence baseline are expected to produce
// violations: a completed operation's effect can vanish with the memory
// host's volatile cache.
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"cxl0/internal/core"
	"cxl0/internal/ds"
	"cxl0/internal/flit"
	"cxl0/internal/history"
	"cxl0/internal/memsim"
)

// Structure selects the data structure under test.
type Structure int

const (
	StructQueue Structure = iota
	StructStack
	StructRegister
	StructCounter
	StructSet
	StructMap
)

var structNames = [...]string{"queue", "stack", "register", "counter", "set", "map"}

func (s Structure) String() string { return structNames[s] }

// Structures lists every testable structure.
var Structures = []Structure{StructQueue, StructStack, StructRegister, StructCounter, StructSet, StructMap}

// CrashMode selects which machine crashes mid-run.
type CrashMode int

const (
	// CrashNone injects no crash (plain linearizability check).
	CrashNone CrashMode = iota
	// CrashMemoryHost crashes the machine owning the structure's memory:
	// its cache content is lost, its NVM survives.
	CrashMemoryHost
	// CrashCompute crashes one compute machine: its workers die mid-
	// operation, leaving pending operations.
	CrashCompute
	// CrashBoth crashes the memory host and a compute machine.
	CrashBoth
)

var crashModeNames = [...]string{"none", "memory-host", "compute", "both"}

func (m CrashMode) String() string { return crashModeNames[m] }

// CrashModes lists all crash modes.
var CrashModes = []CrashMode{CrashNone, CrashMemoryHost, CrashCompute, CrashBoth}

// Options configures one run.
type Options struct {
	Structure    Structure
	Strategy     flit.Strategy
	Crash        CrashMode
	Seed         int64
	Workers      int // concurrent clients, spread round-robin over computeA, computeB and the memory host
	OpsPerWorker int
	Variant      core.Variant
}

// Result is the outcome of one run.
type Result struct {
	Options      Options
	History      history.History
	Linearizable bool
	Err          error
}

const (
	computeA = core.MachineID(0)
	computeB = core.MachineID(1)
	memHost  = core.MachineID(2)
	keySpace = 5 // small, to force conflicts
)

// Run executes one crash experiment.
func Run(o Options) Result {
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.OpsPerWorker <= 0 {
		o.OpsPerWorker = 6
	}
	cluster := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "computeA", Mem: core.NonVolatile, Heap: 16},
		{Name: "computeB", Mem: core.NonVolatile, Heap: 16},
		{Name: "memhost", Mem: core.NonVolatile, Heap: 8192},
	}, memsim.Config{Variant: o.Variant, EvictEvery: 7, Seed: o.Seed})

	heap, err := flit.NewHeap(cluster, memHost)
	if err != nil {
		return Result{Options: o, Err: err}
	}
	setupThread, err := cluster.NewThread(computeA)
	if err != nil {
		return Result{Options: o, Err: err}
	}
	setup := flit.NewSession(o.Strategy, setupThread)

	obj, err := structures[o.Structure](heap, setup)
	if err != nil {
		return Result{Options: o, Err: err}
	}

	var (
		rec         history.Recorder
		opsDone     atomic.Int64
		workersDone atomic.Int64
		wg          sync.WaitGroup
		runErrMu    sync.Mutex
		runErr      error
	)
	fail := func(err error) {
		runErrMu.Lock()
		defer runErrMu.Unlock()
		if runErr == nil {
			runErr = err
		}
	}

	total := int64(o.Workers * o.OpsPerWorker)
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer workersDone.Add(1)
			// Every third worker runs on the memory host, so the owner-local
			// write paths (Local(x) true) run under crashes too.
			machine := [...]core.MachineID{computeA, computeB, memHost}[w%3]
			th, err := cluster.NewThread(machine)
			if err != nil {
				if !errors.Is(err, memsim.ErrCrashed) {
					fail(err)
				}
				return // the machine crashed before the worker started
			}
			c := client{se: flit.NewSession(o.Strategy, th), rec: &rec, cl: cluster, id: w}
			rng := rand.New(rand.NewSource(o.Seed*1000 + int64(w)))
			for i := 0; i < o.OpsPerWorker; i++ {
				arg := core.Val(1 + rng.Intn(keySpace))
				if err := obj.step(c, arg, rng); err != nil {
					if errors.Is(err, memsim.ErrCrashed) {
						return // worker died with the machine; its op stays pending
					}
					if errors.Is(err, ds.ErrCorrupt) {
						// The crash destroyed the structure's anchors — a
						// durability failure only unsound strategies can
						// produce. The op stays pending; the observation
						// phase will expose the loss to the checker.
						return
					}
					fail(fmt.Errorf("worker %d: %w", w, err))
					return
				}
				opsDone.Add(1)
			}
		}(w)
	}

	// Crash controller: wait until roughly half the operations completed,
	// then fail the selected machines and recover them.
	if o.Crash != CrashNone {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for opsDone.Load() < total/2 && workersDone.Load() < int64(o.Workers) {
				runtime.Gosched()
			}
			if o.Crash == CrashMemoryHost || o.Crash == CrashBoth {
				cluster.Crash(memHost)
				cluster.Recover(memHost)
			}
			if o.Crash == CrashCompute || o.Crash == CrashBoth {
				cluster.Crash(computeB)
				cluster.Recover(computeB)
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return Result{Options: o, Err: runErr}
	}

	// Recovery phase: fresh thread, observe the entire structure.
	obsThread, err := cluster.NewThread(computeA)
	if err != nil {
		return Result{Options: o, Err: err}
	}
	obs := client{se: flit.NewSession(o.Strategy, obsThread), rec: &rec, cl: cluster, id: o.Workers}
	if err := obj.observe(obs); err != nil {
		return Result{Options: o, Err: err}
	}

	h := rec.History()
	if err := h.WellFormed(); err != nil {
		return Result{Options: o, Err: err}
	}
	ok := history.Linearizable(h, obj.spec)
	return Result{Options: o, History: h, Linearizable: ok}
}

// client records the operations one client issues through se.
type client struct {
	se  *flit.Session
	rec *history.Recorder
	cl  *memsim.Cluster
	id  int
}

// call is one data-structure call in the shape the history records: a
// return value, an ok flag and an error.
type call func() (core.Val, bool, error)

// do records kind(arg, arg2) around f: Begin, the call, End with what it
// returned. A call that fails — its machine crashed, or it found the
// structure's anchors destroyed (ds.ErrCorrupt), a durability failure only
// unsound strategies produce — leaves the operation pending.
func (c client) do(kind string, arg, arg2 core.Val, f call) error {
	tok := c.rec.Begin(c.id, kind, arg, arg2, c.cl.Stamp())
	v, ok, err := f()
	if err != nil {
		return err
	}
	c.rec.End(tok, v, ok, c.cl.Stamp())
	return nil
}

// drain records kind until take reports nothing left.
func (c client) drain(kind string, take call) error {
	for more := true; more; {
		err := c.do(kind, 0, 0, func() (v core.Val, _ bool, err error) {
			v, more, err = take()
			return v, more, err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Adapters from the ds result shapes to call's.
func none(err error) (core.Val, bool, error)              { return 0, true, err }
func value(v core.Val, err error) (core.Val, bool, error) { return v, true, err }
func found(ok bool, err error) (core.Val, bool, error)    { return 0, ok, err }

// object is one structure under test, as the harness drives it.
type object struct {
	spec history.Spec
	// step performs one randomized operation. arg is drawn before the
	// step's own draws; values are ≥ 1 so that a zeroed (lost) location
	// can never masquerade as real data.
	step func(c client, arg core.Val, rng *rand.Rand) error
	// observe reads the whole structure after recovery, recording the
	// reads as operations of a fresh client so that the checker can
	// confront them with the pre-crash history.
	observe func(c client) error
}

// structures declares each Structure in one place: its constructor builds
// the object on heap (with se for set-up writes) and returns it with its
// spec, its randomized step and its post-recovery observation.
var structures = [...]func(heap *flit.Heap, se *flit.Session) (object, error){
	StructQueue: func(heap *flit.Heap, se *flit.Session) (object, error) {
		q, err := ds.NewQueue(heap, se)
		return object{
			spec: history.QueueSpec{},
			step: func(c client, arg core.Val, rng *rand.Rand) error {
				if rng.Intn(2) == 0 {
					return c.do("enq", arg, 0, func() (core.Val, bool, error) { return none(q.Enqueue(c.se, arg)) })
				}
				return c.do("deq", 0, 0, func() (core.Val, bool, error) { return q.Dequeue(c.se) })
			},
			observe: func(c client) error {
				if err := q.Recover(c.se); err != nil {
					return err
				}
				return c.drain("deq", func() (core.Val, bool, error) { return q.Dequeue(c.se) })
			},
		}, err
	},
	StructStack: func(heap *flit.Heap, _ *flit.Session) (object, error) {
		s, err := ds.NewStack(heap)
		return object{
			spec: history.StackSpec{},
			step: func(c client, arg core.Val, rng *rand.Rand) error {
				if rng.Intn(2) == 0 {
					return c.do("push", arg, 0, func() (core.Val, bool, error) { return none(s.Push(c.se, arg)) })
				}
				return c.do("pop", 0, 0, func() (core.Val, bool, error) { return s.Pop(c.se) })
			},
			observe: func(c client) error {
				return c.drain("pop", func() (core.Val, bool, error) { return s.Pop(c.se) })
			},
		}, err
	},
	StructRegister: func(heap *flit.Heap, _ *flit.Session) (object, error) {
		r, err := ds.NewRegister(heap)
		read := func(c client) error {
			return c.do("read", 0, 0, func() (core.Val, bool, error) { return value(r.Read(c.se)) })
		}
		return object{
			spec: history.RegisterSpec{},
			step: func(c client, arg core.Val, rng *rand.Rand) error {
				switch rng.Intn(3) {
				case 0:
					return c.do("write", arg, 0, func() (core.Val, bool, error) { return none(r.Write(c.se, arg)) })
				case 1:
					return read(c)
				}
				old, new := arg, core.Val(1+rng.Intn(keySpace))
				return c.do("cas", old, new, func() (core.Val, bool, error) { return found(r.CompareAndSwap(c.se, old, new)) })
			},
			observe: read,
		}, err
	},
	StructCounter: func(heap *flit.Heap, _ *flit.Session) (object, error) {
		ctr, err := ds.NewCounter(heap)
		get := func(c client) error {
			return c.do("get", 0, 0, func() (core.Val, bool, error) { return value(ctr.Value(c.se)) })
		}
		return object{
			spec: history.CounterSpec{},
			step: func(c client, _ core.Val, rng *rand.Rand) error {
				if rng.Intn(3) > 0 {
					return c.do("add", 1, 0, func() (core.Val, bool, error) { return value(ctr.Inc(c.se)) })
				}
				return get(c)
			},
			observe: get,
		}, err
	},
	StructSet: func(heap *flit.Heap, _ *flit.Session) (object, error) {
		set, err := ds.NewSet(heap)
		has := func(c client, k core.Val) error {
			return c.do("has", k, 0, func() (core.Val, bool, error) { return found(set.Contains(c.se, k)) })
		}
		return object{
			spec: history.SetSpec{},
			step: func(c client, arg core.Val, rng *rand.Rand) error {
				switch rng.Intn(3) {
				case 0:
					return c.do("ins", arg, 0, func() (core.Val, bool, error) { return found(set.Insert(c.se, arg)) })
				case 1:
					return c.do("rem", arg, 0, func() (core.Val, bool, error) { return found(set.Remove(c.se, arg)) })
				}
				return has(c, arg)
			},
			observe: func(c client) error { return everyKey(c, has) },
		}, err
	},
	StructMap: func(heap *flit.Heap, _ *flit.Session) (object, error) {
		m, err := ds.NewMap(heap, 4)
		get := func(c client, k core.Val) error {
			return c.do("get", k, 0, func() (core.Val, bool, error) { return m.Get(c.se, k) })
		}
		return object{
			spec: history.MapSpec{},
			step: func(c client, arg core.Val, rng *rand.Rand) error {
				switch rng.Intn(3) {
				case 0:
					val := core.Val(1 + rng.Intn(9))
					return c.do("put", arg, val, func() (core.Val, bool, error) { return none(m.Put(c.se, arg, val)) })
				case 1:
					return get(c, arg)
				}
				return c.do("del", arg, 0, func() (core.Val, bool, error) { return found(m.Delete(c.se, arg)) })
			},
			observe: func(c client) error { return everyKey(c, get) },
		}, err
	},
}

// everyKey records read(k) for every key of the key space, in order.
func everyKey(c client, read func(c client, k core.Val) error) error {
	for k := core.Val(1); k <= keySpace; k++ {
		if err := read(c, k); err != nil {
			return err
		}
	}
	return nil
}

// Sweep runs the experiment across seeds and reports how many runs were
// durably linearizable.
func Sweep(base Options, seeds int) (ok, violations int, firstViolation *Result, err error) {
	for s := 0; s < seeds; s++ {
		o := base
		o.Seed = int64(s + 1)
		r := Run(o)
		if r.Err != nil {
			return ok, violations, firstViolation, r.Err
		}
		if r.Linearizable {
			ok++
		} else {
			violations++
			if firstViolation == nil {
				cp := r
				firstViolation = &cp
			}
		}
	}
	return ok, violations, firstViolation, nil
}
