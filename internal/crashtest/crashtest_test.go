package crashtest

import (
	"fmt"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/ds"
	"cxl0/internal/flit"
	"cxl0/internal/history"
	"cxl0/internal/memsim"
)

// TestCorrectStrategiesAreDurablyLinearizable is the positive half of the
// §6 theorem: FliT-for-CXL0 (and the stronger baselines) keep every
// structure durably linearizable under every crash mode, across seeds.
func TestCorrectStrategiesAreDurablyLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	for _, strat := range []flit.Strategy{flit.CXL0FliT, flit.CXL0FliTOpt, flit.MStoreAll} {
		for _, structure := range Structures {
			for _, mode := range CrashModes {
				name := strat.String() + "/" + structure.String() + "/" + mode.String()
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					ok, bad, first, err := Sweep(Options{
						Structure: structure,
						Strategy:  strat,
						Crash:     mode,
					}, 6)
					if err != nil {
						t.Fatal(err)
					}
					if bad != 0 {
						t.Fatalf("%d/%d runs not durably linearizable; first: %v",
							bad, ok+bad, first.History.Ops)
					}
				})
			}
		}
	}
}

// TestOriginalFliTViolatesUnderPartialCrash is the negative half: the
// unmodified x86 FliT (local flushes only) loses completed operations when
// the memory host crashes. This is a deterministic reproduction of the
// paper's motivating failure.
func TestOriginalFliTViolatesUnderPartialCrash(t *testing.T) {
	// Deterministic scenario: no background eviction, so the flushed value
	// deterministically sits in the memory host's cache at crash time.
	cluster := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "computeA", Mem: core.NonVolatile, Heap: 16},
		{Name: "computeB", Mem: core.NonVolatile, Heap: 16},
		{Name: "memhost", Mem: core.NonVolatile, Heap: 256},
	}, memsim.Config{})
	heap, err := flit.NewHeap(cluster, memHost)
	if err != nil {
		t.Fatal(err)
	}
	th, err := cluster.NewThread(computeA)
	if err != nil {
		t.Fatal(err)
	}
	se := flit.NewSession(flit.OriginalFliT, th)
	reg, err := ds.NewRegister(heap)
	if err != nil {
		t.Fatal(err)
	}

	var rec history.Recorder
	tok := rec.Begin(0, "write", 5, 0, cluster.Stamp())
	if err := reg.Write(se, 5); err != nil {
		t.Fatal(err)
	}
	rec.End(tok, 0, true, cluster.Stamp())

	cluster.Crash(memHost)
	cluster.Recover(memHost)

	tok = rec.Begin(1, "read", 0, 0, cluster.Stamp())
	v, err := reg.Read(se)
	if err != nil {
		t.Fatal(err)
	}
	rec.End(tok, v, true, cluster.Stamp())

	if v != 0 {
		t.Fatalf("expected the completed write to be lost under OriginalFliT; read %d", v)
	}
	if history.Linearizable(rec.History(), history.RegisterSpec{}) {
		t.Fatalf("checker accepted a lost completed write")
	}
}

// TestCXL0FliTSurvivesTheSameScenario runs the identical deterministic
// scenario under Algorithm 2: the write persists.
func TestCXL0FliTSurvivesTheSameScenario(t *testing.T) {
	for _, strat := range []flit.Strategy{flit.CXL0FliT, flit.CXL0FliTOpt, flit.MStoreAll} {
		cluster := memsim.NewCluster([]memsim.MachineConfig{
			{Name: "computeA", Mem: core.NonVolatile, Heap: 16},
			{Name: "computeB", Mem: core.NonVolatile, Heap: 16},
			{Name: "memhost", Mem: core.NonVolatile, Heap: 256},
		}, memsim.Config{})
		heap, err := flit.NewHeap(cluster, memHost)
		if err != nil {
			t.Fatal(err)
		}
		th, err := cluster.NewThread(computeA)
		if err != nil {
			t.Fatal(err)
		}
		se := flit.NewSession(strat, th)
		reg, err := ds.NewRegister(heap)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Write(se, 5); err != nil {
			t.Fatal(err)
		}
		cluster.Crash(memHost)
		cluster.Recover(memHost)
		v, err := reg.Read(se)
		if err != nil {
			t.Fatal(err)
		}
		if v != 5 {
			t.Errorf("%v: write lost across memory-host crash: read %d", strat, v)
		}
	}
}

// TestUnsoundStrategiesProduceViolations sweeps the randomized workload
// with the unsound strategies; at least one seed must yield a durable-
// linearizability violation for the queue under a memory-host crash.
func TestUnsoundStrategiesProduceViolations(t *testing.T) {
	for _, strat := range []flit.Strategy{flit.OriginalFliT, flit.NoPersist} {
		t.Run(strat.String(), func(t *testing.T) {
			_, bad, first, err := Sweep(Options{
				Structure:    StructQueue,
				Strategy:     strat,
				Crash:        CrashMemoryHost,
				Workers:      3,
				OpsPerWorker: 8,
			}, 12)
			if err != nil {
				t.Fatal(err)
			}
			if bad == 0 {
				t.Fatalf("no violation found for %v across 12 seeds", strat)
			}
			if first != nil && first.Err != nil {
				t.Fatalf("violating run errored: %v", first.Err)
			}
		})
	}
}

// TestNoCrashAllStrategiesLinearizable: without crashes even the unsound
// strategies are plain linearizable (they only lack durability).
func TestNoCrashAllStrategiesLinearizable(t *testing.T) {
	for _, strat := range flit.Strategies {
		for _, structure := range []Structure{StructQueue, StructRegister, StructCounter} {
			r := Run(Options{Structure: structure, Strategy: strat, Crash: CrashNone, Seed: 3})
			if r.Err != nil {
				t.Fatalf("%v/%v: %v", strat, structure, r.Err)
			}
			if !r.Linearizable {
				t.Errorf("%v/%v: crash-free run not linearizable: %v", strat, structure, r.History.Ops)
			}
		}
	}
}

// TestPSNVariantStillCorrect runs the correct strategies under the PSN
// hardware variant across all crash modes. Poisoning destroys surviving
// machines' cached copies of the crashed owner's lines, which defeats the
// unguarded Algorithm 2 (see TestPSNOwnerCrashAnomaly) — but the
// crash-epoch guard in the sound strategies detects the owner's crash and
// re-issues the affected stores, and MStore-everything bypasses caches
// entirely, so both must stay durably linearizable.
func TestPSNVariantStillCorrect(t *testing.T) {
	for _, strat := range []flit.Strategy{flit.CXL0FliT, flit.MStoreAll} {
		for _, mode := range CrashModes {
			ok, bad, first, err := Sweep(Options{
				Structure: StructQueue,
				Strategy:  strat,
				Crash:     mode,
				Variant:   core.PSN,
			}, 4)
			if err != nil {
				t.Fatal(err)
			}
			if bad != 0 {
				t.Fatalf("PSN/%v/%v: %d/%d violations; first: %v", strat, mode, bad, ok+bad, first.History.Ops)
			}
		}
	}
}

// TestPSNOwnerCrashAnomaly documents a reproduction finding: under the PSN
// variant, a crash of the memory OWNER poisons the writer's cached copy of
// an in-flight store. The surviving writer's RFlush then completes
// vacuously (the line is gone from every cache), so the operation returns
// as completed without its value ever reaching persistence — a durable-
// linearizability violation that cache-line poisoning inflicts on any
// store-then-flush transformation that is not poison-aware. The paper's
// Alg. 2 targets base CXL0; this test pins down why PSN needs more (either
// poison-aware failure handling or cache-bypassing MStores).
func TestPSNOwnerCrashAnomaly(t *testing.T) {
	cluster := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "computeA", Mem: core.NonVolatile, Heap: 16},
		{Name: "computeB", Mem: core.NonVolatile, Heap: 16},
		{Name: "memhost", Mem: core.NonVolatile, Heap: 256},
	}, memsim.Config{Variant: core.PSN})
	heap, err := flit.NewHeap(cluster, memHost)
	if err != nil {
		t.Fatal(err)
	}
	th, err := cluster.NewThread(computeA)
	if err != nil {
		t.Fatal(err)
	}
	se := flit.NewSession(flit.CXL0FliT, th)
	v, err := heap.AllocVar()
	if err != nil {
		t.Fatal(err)
	}

	// Reproduce shared_store's internals with the crash in the vulnerable
	// window: after the LStore, before the RFlush.
	if _, err := th.FAA(core.OpMRMW, v.Ctr, 1); err != nil {
		t.Fatal(err)
	}
	if err := th.LStore(v.Data, 5); err != nil {
		t.Fatal(err)
	}
	cluster.Crash(memHost) // PSN: poisons the cached 5 in computeA
	cluster.Recover(memHost)
	if err := th.RFlush(v.Data); err != nil { // completes vacuously
		t.Fatal(err)
	}
	if _, err := th.FAA(core.OpLRMW, v.Ctr, -1); err != nil {
		t.Fatal(err)
	}
	got, err := se.Load(v)
	if err != nil {
		t.Fatal(err)
	}
	if got == 5 {
		t.Fatalf("PSN anomaly no longer reproduces: poisoned in-flight store survived")
	}
}

// TestLWBVariantStillCorrect does the same for the LWB variant.
func TestLWBVariantStillCorrect(t *testing.T) {
	for _, mode := range CrashModes {
		ok, bad, first, err := Sweep(Options{
			Structure: StructMap,
			Strategy:  flit.CXL0FliT,
			Crash:     mode,
			Variant:   core.LWB,
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Fatalf("LWB/%v: %d/%d violations; first: %v", mode, bad, ok+bad, first.History.Ops)
		}
	}
}

// TestUnknownNames: a value outside the declared structures or crash
// modes names itself instead of panicking.
func TestUnknownNames(t *testing.T) {
	for _, c := range []struct {
		v    fmt.Stringer
		want string
	}{
		{Structure(-1), "Structure(-1)"},
		{Structure(len(Structures)), "Structure(6)"},
		{CrashMode(-1), "CrashMode(-1)"},
		{CrashMode(len(CrashModes)), "CrashMode(4)"},
		{StructMap, "map"},
		{CrashBoth, "both"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
