package flit

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/latency"
	"cxl0/internal/memsim"
)

// update rewrites testdata/session.golden from this run instead of
// checking against it:
//
//	go test ./internal/flit -run Golden -update
//
// Only a change that means to alter a wrapper's primitive sequence may
// use it.
var update = flag.Bool("update", false, "rewrite testdata/session.golden from this run")

// goldenCase is one named case of a golden test and the text it pins.
type goldenCase struct{ name, text string }

// checkGolden holds every case's SHA-256 digest to the "name digest" line
// recorded for it in path, in case order, or rewrites path under -update.
func checkGolden(t *testing.T, path string, cases []goldenCase) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# SHA-256 per case; regenerate with -update, do not edit by hand.\n")
	for _, c := range cases {
		fmt.Fprintf(&b, "%s %x\n", c.name, sha256.Sum256([]byte(c.text)))
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(b.String(), "\n"), strings.Split(string(doc), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s holds %d lines, this run %d: the case set changed (rerun with -update if intended)", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %q, golden %q: behaviour changed (rerun with -update if intended)", path, got[i], want[i])
		}
	}
}

// TestSessionTraceGolden pins every wrapper's primitive sequence. Per
// strategy, with the data on the issuing machine and on its peer, 400
// seeded calls of the session's operations run on a latency-charged,
// evicting cluster; after each call the trace records the result, the
// error, the simulated clock and the cumulative primitive counts.
func TestSessionTraceGolden(t *testing.T) {
	var cases []goldenCase
	for _, strat := range Strategies {
		for _, home := range []core.MachineID{0, 1} {
			name := strat.String() + "/issuer"
			if home != 0 {
				name = strat.String() + "/peer"
			}
			cases = append(cases, goldenCase{name, sessionTrace(t, strat, home)})
		}
	}
	checkGolden(t, "testdata/session.golden", cases)
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
