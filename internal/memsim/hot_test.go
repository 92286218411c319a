package memsim

import (
	"math/rand"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/latency"
)

// hotModel is the clean-copy overlay as it was first written: one map of
// lines per machine.
type hotModel []map[core.LocID]bool

func (h hotModel) coolAll(x core.LocID) { h.coolExcept(-1, x) }

func (h hotModel) coolExcept(m core.MachineID, x core.LocID) {
	for j := range h {
		if core.MachineID(j) != m {
			delete(h[j], x)
		}
	}
}

// stored is the overlay's move for a store, or the store half of an RMW,
// by m to x: the L kinds land in m's cache, the R kinds in the owner's, the
// M kinds in memory.
func (h hotModel) stored(op core.Op, m, owner core.MachineID, x core.LocID) {
	switch op {
	case core.OpLStore, core.OpLRMW:
	case core.OpRStore, core.OpRRMW:
		m = owner
	default:
		h.coolAll(x)
		return
	}
	h[m][x] = true
	h.coolExcept(m, x)
}

// tau is the overlay's move for one propagation step.
func (h hotModel) tau(ts core.TauStep, owner core.MachineID) {
	if ts.ToMemory {
		h.coolAll(ts.Loc)
		return
	}
	delete(h[ts.From], ts.Loc)
	h[owner][ts.Loc] = true
}

// TestHotOverlayMatchesMapModel pins the simulated clock to the overlay's
// map model: 600 seeded primitives of every kind, evictions among them, and
// six PSN crashes and recoveries on a three-machine cluster, with the clock
// recomputed beside them from the latency model and the `cached` flag the
// map model predicts for each charge, and the overlay's sets compared with
// the maps after every one — its warm mask too, which must name every
// machine with a line in a word, since cooling asks no other. A line-set
// overlay that warms, cools or forgets a line differently charges some
// load or RMW differently, and the clocks part.
func TestHotOverlayMatchesMapModel(t *testing.T) {
	const seed, heap = 17, 96
	lat := latency.NewModel()
	for _, op := range []core.Op{core.OpLoad, core.OpLRMW, core.OpRRMW, core.OpMRMW} {
		for _, local := range []bool{false, true} {
			if lat.CXL0CostCached(op, local, true) == lat.CXL0CostCached(op, local, false) {
				t.Fatalf("%v (local %v) costs the same cached or not: the clock cannot show the flag", op, local)
			}
		}
	}
	c := NewCluster([]MachineConfig{
		{Name: "front", Mem: core.NonVolatile},
		{Name: "a", Mem: core.NonVolatile, Heap: heap},
		{Name: "b", Mem: core.Volatile, Heap: heap},
	}, Config{Variant: core.PSN, Seed: seed, Latency: lat})
	threads := make([]*Thread, c.Machines())
	hot := make(hotModel, c.Machines())
	for m := range threads {
		th, err := c.NewThread(core.MachineID(m))
		if err != nil {
			t.Fatal(err)
		}
		threads[m], hot[m] = th, map[core.LocID]bool{}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	evictions := rand.New(rand.NewSource(seed)) // the cluster's eviction draws, replayed
	script := rand.New(rand.NewSource(3))
	rmws := []core.Op{core.OpLRMW, core.OpRRMW, core.OpMRMW}
	want, clean := 0.0, 0 // clean: charges only the overlay made cached
	for round := 0; round < 600; round++ {
		th := threads[script.Intn(len(threads))]
		// Three of four operations fall on sixteen lines either side of the
		// border between a's heap and b's, so that lines are met again.
		m, x := th.Machine(), core.LocID(script.Intn(2*heap))
		if script.Intn(4) > 0 {
			x = heap - 8 + x%16
		}
		owner, before := c.Owner(x), c.Snapshot()
		local := owner == m
		cached := before.Cache(m, x) != core.Bot || hot[m][x]
		charge := func(op core.Op, cached bool) {
			want += lat.CXL0CostCached(op, local, cached)
			if cached && before.Cache(m, x) == core.Bot {
				clean++
			}
		}
		switch k := script.Intn(40); {
		case k < 14:
			_, err := th.Load(x)
			must(err)
			hot[m][x] = true
			charge(core.OpLoad, cached)
		case k < 20:
			op := []core.Op{core.OpLStore, core.OpRStore, core.OpMStore}[script.Intn(3)]
			must(th.StoreWords(op, x, []core.Val{core.Val(1 + script.Intn(9))}))
			hot.stored(op, m, owner, x)
			charge(op, false)
		case k < 24:
			must(th.LFlush(x))
			if before.Cache(m, x) != core.Bot {
				hot.tau(core.TauStep{From: m, Loc: x, ToMemory: local}, owner)
			}
			delete(hot[m], x)
			charge(core.OpLFlush, false)
		case k < 26:
			must(th.RFlush(x))
			hot.coolAll(x)
			charge(core.OpRFlush, false)
		case k < 28:
			n := 1 + script.Intn(2*heap-int(x))%40
			must(th.RFlushRange(x, n))
			lines := make([]int, c.Machines())
			for l := x; l < x+core.LocID(n); l++ {
				hot.coolAll(l)
				lines[c.Owner(l)]++
			}
			for dev, n := range lines {
				if n > 0 {
					want += lat.RFlushRangeCost(n, core.MachineID(dev) == m)
				}
			}
		case k < 32:
			op, old := rmws[script.Intn(3)], before.Readable(x)
			if script.Intn(3) == 0 {
				old++ // a CAS that fails is charged, and warms, as a load
			}
			ok, err := th.CAS(op, x, old, core.Val(1+script.Intn(9)))
			must(err)
			if ok {
				hot.stored(op, m, owner, x)
				charge(op, cached)
			} else {
				hot[m][x] = true
				charge(core.OpLoad, cached)
			}
		case k < 34:
			op := rmws[script.Intn(3)]
			_, err := th.FAA(op, x, 1)
			must(err)
			hot.stored(op, m, owner, x)
			charge(op, cached)
		case k < 39:
			if steps := core.TauSteps(before); len(steps) > 0 {
				ts := steps[evictions.Intn(len(steps))]
				hot.tau(ts, c.Owner(ts.Loc))
			}
			c.Churn(1)
		default:
			// Every held line drains through its owner's cache to memory,
			// which cools it everywhere; clean copies of other lines stay.
			must(th.GPF())
			for _, ts := range core.TauSteps(before) {
				hot.coolAll(ts.Loc)
			}
			want += lat.CXL0CostCached(core.OpGPF, false, false)
		}
		if round%100 == 99 {
			// a and b crash in turn. PSN: the crashed machine's copies go,
			// and every copy of a line it owns.
			down := core.MachineID(1 + round/100%2)
			c.Crash(down)
			c.Recover(down)
			clear(hot[down])
			for l := core.LocID(0); l < 2*heap; l++ {
				if c.Owner(l) == down {
					hot.coolAll(l)
				}
			}
			fresh, err := c.NewThread(down)
			must(err)
			threads[down] = fresh
		}
		if got := c.NowNS(); got != want {
			t.Fatalf("round %d: clock %v, the map model's %v", round, got, want)
		}
		// The clock shows a wrong bit only once something is charged for
		// the line; the sets themselves are held to the maps every round,
		// and the warm mask must name every machine with a line in a word.
		c.mu.Lock()
		for m := range hot {
			for l := core.LocID(0); l < 2*heap; l++ {
				if c.hot.lines[m].Has(l) != hot[m][l] {
					t.Fatalf("round %d: machine %d holds a clean copy of %d: %v, in the map model: %v", round, m, l, !hot[m][l], hot[m][l])
				}
				if hot[m][l] && !c.hot.warm.Has(core.MachineID(m), l) {
					t.Fatalf("round %d: machine %d holds a clean copy of %d, but warm leaves it out of the word", round, m, l)
				}
			}
		}
		c.mu.Unlock()
	}
	if clean < 25 {
		t.Fatalf("%d charges for a line only the overlay held: the trace is too thin", clean)
	}
}
