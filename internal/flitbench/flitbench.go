// Package flitbench measures the cost of persistence strategies (§6.1 of
// the paper) on the runtime's simulated clock: how many simulated
// nanoseconds of CXL traffic one high-level operation costs under each
// transformation, for different workloads and data placements.
//
// Wall-clock time on the simulation host is meaningless here; the
// simulated clock charges each CXL0 primitive the latency model's cost
// (§5.2 / Figure 5), so the comparison reflects what the paper's hardware
// would see.
package flitbench

import (
	"fmt"
	"math/rand"

	"cxl0/internal/core"
	"cxl0/internal/ds"
	"cxl0/internal/flit"
	"cxl0/internal/latency"
	"cxl0/internal/memsim"
)

// Workload selects a benchmark workload.
type Workload int

const (
	// QueuePingPong alternates enqueue and dequeue.
	QueuePingPong Workload = iota
	// MapReadMostly is 90% Get / 10% Put over a small key space.
	MapReadMostly
	// MapWriteHeavy is 50% Put / 30% Get / 20% Delete.
	MapWriteHeavy
	// CounterHot hammers one fetch-and-add counter.
	CounterHot
	// RegisterMixed is 50% read / 40% write / 10% CAS.
	RegisterMixed
	// StackChurn alternates push and pop.
	StackChurn
)

var workloadNames = [...]string{
	"queue-pingpong", "map-read-mostly", "map-write-heavy", "counter-hot", "register-mixed", "stack-churn",
}

func (w Workload) String() string { return workloadNames[w] }

// Workloads lists all benchmark workloads.
var Workloads = []Workload{QueuePingPong, MapReadMostly, MapWriteHeavy, CounterHot, RegisterMixed, StackChurn}

// Placement says where the structure's memory lives relative to the worker.
type Placement int

const (
	// Remote places the structure on a memory host distinct from the
	// worker's machine (the disaggregated case).
	Remote Placement = iota
	// Local places the structure on the worker's own machine.
	Local
)

func (p Placement) String() string {
	if p == Local {
		return "local"
	}
	return "remote"
}

// Config is one benchmark cell.
type Config struct {
	Workload  Workload
	Strategy  flit.Strategy
	Placement Placement
	Ops       int
	Seed      int64
}

// Stats is the result of one cell.
type Stats struct {
	Config     Config
	Ops        int
	SimNS      float64
	SimNSPerOp float64
}

// Run executes one benchmark cell on a fresh cluster, one random eviction
// per 64 primitives.
func Run(cfg Config) (Stats, error) { return run(cfg, 64) }

// run is Run at an explicit eviction rate (the eviction ablation's knob).
func run(cfg Config, evictEvery int) (Stats, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 2000
	}
	heapWords := cfg.Ops*8 + 1024
	cluster := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "worker", Mem: core.NonVolatile, Heap: heapWords},
		{Name: "memhost", Mem: core.NonVolatile, Heap: heapWords},
	}, memsim.Config{Latency: latency.NewModel(), EvictEvery: evictEvery, Seed: cfg.Seed})

	home := core.MachineID(1)
	if cfg.Placement == Local {
		home = 0
	}
	heap, err := flit.NewHeap(cluster, home)
	if err != nil {
		return Stats{}, err
	}
	th, err := cluster.NewThread(0)
	if err != nil {
		return Stats{}, err
	}
	se := flit.NewSession(cfg.Strategy, th)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	step, err := newStepper(cfg.Workload, heap, se)
	if err != nil {
		return Stats{}, err
	}
	// Warm up structure and caches a little before timing.
	for i := 0; i < 32; i++ {
		if err := step(se, rng); err != nil {
			return Stats{}, err
		}
	}
	start := cluster.NowNS()
	for i := 0; i < cfg.Ops; i++ {
		if err := step(se, rng); err != nil {
			return Stats{}, err
		}
	}
	total := cluster.NowNS() - start
	return Stats{Config: cfg, Ops: cfg.Ops, SimNS: total, SimNSPerOp: total / float64(cfg.Ops)}, nil
}

// stepper performs one workload operation.
type stepper func(se *flit.Session, rng *rand.Rand) error

func newStepper(w Workload, heap *flit.Heap, se *flit.Session) (stepper, error) {
	switch w {
	case QueuePingPong:
		q, err := ds.NewQueue(heap, se)
		if err != nil {
			return nil, err
		}
		toggle := false
		return func(se *flit.Session, rng *rand.Rand) error {
			toggle = !toggle
			if toggle {
				return q.Enqueue(se, core.Val(1+rng.Intn(100)))
			}
			_, _, err := q.Dequeue(se)
			return err
		}, nil
	case MapReadMostly, MapWriteHeavy:
		m, err := ds.NewMap(heap, 16)
		if err != nil {
			return nil, err
		}
		readPct := 90
		if w == MapWriteHeavy {
			readPct = 30
		}
		return func(se *flit.Session, rng *rand.Rand) error {
			k := core.Val(1 + rng.Intn(32))
			r := rng.Intn(100)
			switch {
			case r < readPct:
				_, _, err := m.Get(se, k)
				return err
			case w == MapWriteHeavy && r >= 80:
				_, err := m.Delete(se, k)
				return err
			default:
				return m.Put(se, k, core.Val(1+rng.Intn(100)))
			}
		}, nil
	case CounterHot:
		c, err := ds.NewCounter(heap)
		if err != nil {
			return nil, err
		}
		return func(se *flit.Session, rng *rand.Rand) error {
			_, err := c.Inc(se)
			return err
		}, nil
	case RegisterMixed:
		r, err := ds.NewRegister(heap)
		if err != nil {
			return nil, err
		}
		return func(se *flit.Session, rng *rand.Rand) error {
			switch n := rng.Intn(10); {
			case n < 5:
				_, err := r.Read(se)
				return err
			case n < 9:
				return r.Write(se, core.Val(1+rng.Intn(100)))
			default:
				_, err := r.CompareAndSwap(se, core.Val(rng.Intn(100)), core.Val(1+rng.Intn(100)))
				return err
			}
		}, nil
	case StackChurn:
		s, err := ds.NewStack(heap)
		if err != nil {
			return nil, err
		}
		toggle := false
		return func(se *flit.Session, rng *rand.Rand) error {
			toggle = !toggle
			if toggle {
				return s.Push(se, core.Val(1+rng.Intn(100)))
			}
			_, _, err := s.Pop(se)
			return err
		}, nil
	}
	return nil, fmt.Errorf("flitbench: unknown workload %d", int(w))
}
