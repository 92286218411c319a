package flit

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/golden"
	"cxl0/internal/latency"
	"cxl0/internal/memsim"
)

// TestSessionTraceGolden pins every wrapper's primitive sequence. Per
// strategy, with the data on the issuing machine and on its peer, 400
// seeded calls of the session's operations run on a latency-charged,
// evicting cluster; after each call the trace records the result, the
// error, the simulated clock and the cumulative primitive counts. Only a
// change that means to alter a wrapper's primitive sequence reruns it
// with -update.
func TestSessionTraceGolden(t *testing.T) {
	var cases []golden.Case
	for _, strat := range Strategies {
		for _, home := range []core.MachineID{0, 1} {
			name := strat.String() + "/issuer"
			if home != 0 {
				name = strat.String() + "/peer"
			}
			cases = append(cases, golden.Case{Name: name, Text: sessionTrace(t, strat, home)})
		}
	}
	golden.Check(t, "testdata/session.golden", golden.Digests(cases))
}

func sessionTrace(t *testing.T, strat Strategy, home core.MachineID) string {
	t.Helper()
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "issuer", Mem: core.NonVolatile, Heap: 512},
		{Name: "peer", Mem: core.NonVolatile, Heap: 512},
	}, memsim.Config{Latency: latency.NewModel(), EvictEvery: 5, Seed: 1})
	th, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(c, home)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := h.AllocVars(4)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSession(strat, th)
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 400; i++ {
		x, v := vars[rng.Intn(len(vars))], core.Val(rng.Intn(4))
		var res any
		var err error
		op := rng.Intn(6)
		switch op {
		case 0:
			res, err = se.Load(x)
		case 1:
			err = se.Store(x, v)
		case 2:
			res, err = se.CAS(x, v, core.Val(rng.Intn(4)))
		case 3:
			res, err = se.FAA(x, v)
		case 4:
			err = se.PrivateStore(x, v)
		default:
			res, err = se.PrivateLoad(x)
		}
		fmt.Fprintf(&b, "%d %v %v %v", op, res, err, c.NowNS())
		stats := c.Stats()
		for _, prim := range core.AllOps {
			fmt.Fprintf(&b, " %d", stats[prim])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
