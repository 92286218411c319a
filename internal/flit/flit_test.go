package flit

import (
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/memsim"
)

// rig builds worker (machine 0) + memhost (machine 1) and a session on the
// worker.
func rig(t *testing.T, strat Strategy) (*memsim.Cluster, *Heap, *Session) {
	t.Helper()
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "worker", Mem: core.NonVolatile, Heap: 512},
		{Name: "memhost", Mem: core.NonVolatile, Heap: 512},
	}, memsim.Config{})
	th, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c, h, NewSession(strat, th)
}

func TestStoreLoadAllStrategies(t *testing.T) {
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			_, h, se := rig(t, strat)
			x, err := h.AllocVar()
			if err != nil {
				t.Fatal(err)
			}
			if err := se.Store(x, 42); err != nil {
				t.Fatal(err)
			}
			v, err := se.Load(x)
			if err != nil || v != 42 {
				t.Fatalf("load = %d, %v", v, err)
			}
		})
	}
}

// TestSoundStoresPersistImmediately: for every sound strategy, a completed
// shared store must already be in physical memory.
func TestSoundStoresPersistImmediately(t *testing.T) {
	for _, strat := range Strategies {
		if !strat.Correct() {
			continue
		}
		t.Run(strat.String(), func(t *testing.T) {
			c, h, se := rig(t, strat)
			x, err := h.AllocVar()
			if err != nil {
				t.Fatal(err)
			}
			if err := se.Store(x, 7); err != nil {
				t.Fatal(err)
			}
			if got := c.PersistedValue(x.Data); got != 7 {
				t.Errorf("persisted = %d, want 7 (store must persist before returning)", got)
			}
			// Same for the RMW wrappers.
			ok, err := se.CAS(x, 7, 8)
			if err != nil || !ok {
				t.Fatalf("CAS: %v %v", ok, err)
			}
			if got := c.PersistedValue(x.Data); got != 8 {
				t.Errorf("persisted after CAS = %d, want 8", got)
			}
			if _, err := se.FAA(x, 2); err != nil {
				t.Fatal(err)
			}
			if got := c.PersistedValue(x.Data); got != 10 {
				t.Errorf("persisted after FAA = %d, want 10", got)
			}
			if err := se.PrivateStore(x, 11); err != nil {
				t.Fatal(err)
			}
			if got := c.PersistedValue(x.Data); got != 11 {
				t.Errorf("persisted after PrivateStore = %d, want 11", got)
			}
		})
	}
}

// TestUnsoundStoresMayNotPersist: OriginalFliT and NoPersist leave the
// value out of the owner's memory (in caches) on return.
func TestUnsoundStoresMayNotPersist(t *testing.T) {
	for _, strat := range []Strategy{OriginalFliT, NoPersist} {
		c, h, se := rig(t, strat)
		x, err := h.AllocVar()
		if err != nil {
			t.Fatal(err)
		}
		if err := se.Store(x, 7); err != nil {
			t.Fatal(err)
		}
		if got := c.PersistedValue(x.Data); got == 7 {
			t.Errorf("%v: store persisted eagerly; expected it to linger in caches", strat)
		}
	}
}

// TestLocalPathUsesCheapStores: on owner-local data the sound FliT
// strategies keep the cached store path (the §6.1 optimisation target), and
// still persist before returning. Only strategies whose readers check the
// counter bracket the write with it: a local Store and CAS cost the FliT
// strategies two counter L-RMWs each besides the CAS itself, flush-on-read
// none.
func TestLocalPathUsesCheapStores(t *testing.T) {
	for _, tc := range []struct {
		strat    Strategy
		wantLRMW uint64
	}{{CXL0FliT, 5}, {CXL0FliTOpt, 5}, {FlushOnRead, 1}} {
		strat := tc.strat
		c := memsim.NewCluster([]memsim.MachineConfig{
			{Name: "owner", Mem: core.NonVolatile, Heap: 512},
		}, memsim.Config{})
		th, err := c.NewThread(0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHeap(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		se := NewSession(strat, th)
		x, err := h.AllocVar()
		if err != nil {
			t.Fatal(err)
		}
		if err := se.Store(x, 5); err != nil {
			t.Fatal(err)
		}
		if got := c.PersistedValue(x.Data); got != 5 {
			t.Errorf("%v: local store not persisted: %d", strat, got)
		}
		ok, err := se.CAS(x, 5, 6)
		if err != nil || !ok {
			t.Fatalf("%v local CAS: %v %v", strat, ok, err)
		}
		if got := c.PersistedValue(x.Data); got != 6 {
			t.Errorf("%v: local CAS not persisted: %d", strat, got)
		}
		if got := c.Stats()[core.OpLRMW]; got != tc.wantLRMW {
			t.Errorf("%v: local Store and CAS issued %d L-RMWs, want %d", strat, got, tc.wantLRMW)
		}
	}
}

// TestCounterLifecycle: the FliT counter is positive during a local store's
// vulnerable window and returns to zero after completion.
func TestCounterLifecycle(t *testing.T) {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "owner", Mem: core.NonVolatile, Heap: 512},
	}, memsim.Config{})
	th, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSession(CXL0FliT, th)
	x, err := h.AllocVar()
	if err != nil {
		t.Fatal(err)
	}
	// Reproduce the store's phases by hand and observe the counter.
	if err := se.ctrInc(x); err != nil {
		t.Fatal(err)
	}
	ctr, err := th.Load(x.Ctr)
	if err != nil || ctr != 1 {
		t.Fatalf("counter mid-store = %d, %v; want 1", ctr, err)
	}
	if err := se.ctrDec(x); err != nil {
		t.Fatal(err)
	}
	ctr, err = th.Load(x.Ctr)
	if err != nil || ctr != 0 {
		t.Fatalf("counter after = %d, %v; want 0", ctr, err)
	}
	// A rolled-back decrement never drives the counter negative.
	if err := se.ctrDec(x); err != nil {
		t.Fatal(err)
	}
	ctr, err = th.Load(x.Ctr)
	if err != nil || ctr != 0 {
		t.Fatalf("orphan decrement produced %d, %v", ctr, err)
	}
}

// TestCounterIncrementSurvivesOwnerCrash: the sound strategies persist
// counter increments, so a crash cannot roll them back (the counter-
// rollback anomaly found by the crash harness).
func TestCounterIncrementSurvivesOwnerCrash(t *testing.T) {
	c, h, se := rig(t, CXL0FliT)
	x, err := h.AllocVar()
	if err != nil {
		t.Fatal(err)
	}
	if err := se.ctrInc(x); err != nil {
		t.Fatal(err)
	}
	c.Crash(1) // counter lives on machine 1 (NVM)
	c.Recover(1)
	ctr, err := se.T.Load(x.Ctr)
	if err != nil || ctr != 1 {
		t.Fatalf("counter after owner crash = %d, %v; want 1 (persistent increment)", ctr, err)
	}
}

// TestReaderHelpsPersistLocalInFlightStore reproduces the helping protocol:
// a store on owner-local data is visible but unpersisted mid-window; a
// remote reader sees the positive counter and must persist the value before
// returning.
func TestReaderHelpsPersistLocalInFlightStore(t *testing.T) {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "owner", Mem: core.NonVolatile, Heap: 512},
		{Name: "reader", Mem: core.NonVolatile, Heap: 16},
	}, memsim.Config{})
	ownerTh, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	readerTh, err := c.NewThread(1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	writer := NewSession(CXL0FliTOpt, ownerTh)
	reader := NewSession(CXL0FliTOpt, readerTh)
	x, err := h.AllocVar()
	if err != nil {
		t.Fatal(err)
	}

	// Writer mid-store: counter up, value in the owner's cache only.
	if err := writer.ctrInc(x); err != nil {
		t.Fatal(err)
	}
	if err := ownerTh.LStore(x.Data, 9); err != nil {
		t.Fatal(err)
	}
	if c.PersistedValue(x.Data) == 9 {
		t.Fatal("test setup broken: value persisted too early")
	}

	v, err := reader.Load(x)
	if err != nil || v != 9 {
		t.Fatalf("reader load = %d, %v", v, err)
	}
	if got := c.PersistedValue(x.Data); got != 9 {
		t.Errorf("reader completed without persisting the observed in-flight value (persisted=%d)", got)
	}
}

// TestFieldVarLayout checks node field addressing and counter-table
// hashing.
func TestFieldVarLayout(t *testing.T) {
	_, h, _ := rig(t, CXL0FliT)
	base, err := h.AllocNode(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f := h.FieldVar(base, i)
		if f.Data != base+core.LocID(i) {
			t.Errorf("field %d data at %d, want %d", i, f.Data, base+core.LocID(i))
		}
		if h.Cluster().Owner(f.Ctr) != h.Machine() {
			t.Errorf("field %d counter lives on machine %d, want %d",
				i, h.Cluster().Owner(f.Ctr), h.Machine())
		}
	}
	// Consecutive nodes don't overlap.
	base2, err := h.AllocNode(3)
	if err != nil {
		t.Fatal(err)
	}
	if base2 < base+3 {
		t.Errorf("nodes overlap: %d then %d", base, base2)
	}
}

// TestStrategyMetadata pins down names and soundness flags.
func TestStrategyMetadata(t *testing.T) {
	if len(Strategies) != 6 {
		t.Fatalf("expected 6 strategies, got %d", len(Strategies))
	}
	want := map[Strategy]bool{
		CXL0FliT: true, CXL0FliTOpt: true, MStoreAll: true, FlushOnRead: true,
		OriginalFliT: false, NoPersist: false,
	}
	for s, correct := range want {
		if s.Correct() != correct {
			t.Errorf("%v.Correct() = %v, want %v", s, s.Correct(), correct)
		}
		if s.String() == "" {
			t.Errorf("strategy %d has empty name", int(s))
		}
	}
}

// TestPrivateStoreRetriesAcrossOwnerCrash: the epoch-guarded private store
// must re-issue a value destroyed in the owner's dying cache.
func TestPrivateStoreRetriesAcrossOwnerCrash(t *testing.T) {
	c, h, se := rig(t, CXL0FliT)
	x, err := h.AllocVar()
	if err != nil {
		t.Fatal(err)
	}
	// Normal private store persists.
	if err := se.PrivateStore(x, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.PersistedValue(x.Data); got != 3 {
		t.Fatalf("persisted = %d", got)
	}
	// Crash + recovery of the owner between ops: next store still lands.
	c.Crash(1)
	c.Recover(1)
	if err := se.PrivateStore(x, 4); err != nil {
		t.Fatal(err)
	}
	if got := c.PersistedValue(x.Data); got != 4 {
		t.Fatalf("post-crash private store lost: %d", got)
	}
}

// TestUnflaggedOperationsSkipPersistence: pflag-clear accesses are plain
// cached operations — cheap, visible, and deliberately not durable.
func TestUnflaggedOperationsSkipPersistence(t *testing.T) {
	c, h, se := rig(t, CXL0FliT)
	x, err := h.AllocVar()
	if err != nil {
		t.Fatal(err)
	}
	if err := se.StoreUnflagged(x, 9); err != nil {
		t.Fatal(err)
	}
	if v, err := se.LoadUnflagged(x); err != nil || v != 9 {
		t.Fatalf("unflagged load = %d, %v", v, err)
	}
	if got := c.PersistedValue(x.Data); got == 9 {
		t.Errorf("unflagged store persisted eagerly (%d) — it must stay cached", got)
	}
	// Let cache replacement push the value into the owner's cache, then
	// crash the owner: an unflagged store is allowed to vanish.
	if err := se.T.LFlush(x.Data); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	c.Recover(1)
	if v, _ := se.LoadUnflagged(x); v != 0 {
		t.Errorf("unflagged store survived the owner's crash: %d", v)
	}
}

// TestSessionMatrixAllStrategies drives every Session operation under every
// strategy on both local and remote variables, checking functional results
// and post-conditions.
func TestSessionMatrixAllStrategies(t *testing.T) {
	for _, strat := range Strategies {
		for _, localData := range []bool{false, true} {
			name := strat.String()
			if localData {
				name += "/local"
			} else {
				name += "/remote"
			}
			t.Run(name, func(t *testing.T) {
				c := memsim.NewCluster([]memsim.MachineConfig{
					{Name: "worker", Mem: core.NonVolatile, Heap: 512},
					{Name: "memhost", Mem: core.NonVolatile, Heap: 512},
				}, memsim.Config{EvictEvery: 3, Seed: 7})
				home := core.MachineID(1)
				if localData {
					home = 0
				}
				h, err := NewHeap(c, home)
				if err != nil {
					t.Fatal(err)
				}
				th, err := c.NewThread(0)
				if err != nil {
					t.Fatal(err)
				}
				se := NewSession(strat, th)
				x, err := h.AllocVar()
				if err != nil {
					t.Fatal(err)
				}

				if err := se.Store(x, 5); err != nil {
					t.Fatal(err)
				}
				if v, _ := se.Load(x); v != 5 {
					t.Fatalf("load after store = %d", v)
				}
				ok, err := se.CAS(x, 5, 6)
				if err != nil || !ok {
					t.Fatalf("CAS 5->6: %v %v", ok, err)
				}
				ok, err = se.CAS(x, 5, 7)
				if err != nil || ok {
					t.Fatalf("stale CAS succeeded: %v %v", ok, err)
				}
				prev, err := se.FAA(x, 3)
				if err != nil || prev != 6 {
					t.Fatalf("FAA prev = %d, %v", prev, err)
				}
				if v, _ := se.Load(x); v != 9 {
					t.Fatalf("after FAA = %d", v)
				}
				if err := se.PrivateStore(x, 11); err != nil {
					t.Fatal(err)
				}
				if v, _ := se.PrivateLoad(x); v != 11 {
					t.Fatalf("private load = %d", v)
				}
				if err := se.Complete(); err != nil {
					t.Fatal(err)
				}
				// Sound strategies leave everything persistent.
				if strat.Correct() {
					if got := c.PersistedValue(x.Data); got != 11 {
						t.Errorf("persisted = %d, want 11", got)
					}
				}
				if err := c.CheckInvariant(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestStoreBeginFinish checks the two-phase experimental store API.
func TestStoreBeginFinish(t *testing.T) {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "owner", Mem: core.NonVolatile, Heap: 512},
	}, memsim.Config{})
	h, err := NewHeap(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	th, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSession(CXL0FliT, th)
	x, err := h.AllocVar()
	if err != nil {
		t.Fatal(err)
	}
	if err := se.StoreBegin(x, 4); err != nil {
		t.Fatal(err)
	}
	if ctr, _ := th.Load(x.Ctr); ctr != 1 {
		t.Fatalf("counter mid-window = %d", ctr)
	}
	if c.PersistedValue(x.Data) == 4 {
		t.Fatal("value persisted before StoreFinish")
	}
	if err := se.StoreFinish(x); err != nil {
		t.Fatal(err)
	}
	if got := c.PersistedValue(x.Data); got != 4 {
		t.Errorf("persisted = %d", got)
	}
	if ctr, _ := th.Load(x.Ctr); ctr != 0 {
		t.Errorf("counter after finish = %d", ctr)
	}
	// StoreBegin requires an owner-local variable.
	c2 := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "worker", Mem: core.NonVolatile, Heap: 16},
		{Name: "memhost", Mem: core.NonVolatile, Heap: 512},
	}, memsim.Config{})
	h2, err := NewHeap(c2, 1)
	if err != nil {
		t.Fatal(err)
	}
	th2, err := c2.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	se2 := NewSession(CXL0FliT, th2)
	y, err := h2.AllocVar()
	if err != nil {
		t.Fatal(err)
	}
	if err := se2.StoreBegin(y, 1); err == nil {
		t.Error("StoreBegin on a remote variable did not fail")
	}
}

// TestAllocVarsAndSizedHeap covers bulk allocation and table sizing edge
// cases.
func TestAllocVarsAndSizedHeap(t *testing.T) {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "m", Mem: core.NonVolatile, Heap: 64},
	}, memsim.Config{})
	h, err := NewHeapSized(c, 0, 0) // 0 → default size, larger than heap
	if err == nil {
		_, err = h.AllocVar()
	}
	if err == nil {
		t.Fatal("expected allocation failure with default table on tiny heap")
	}
	h2, err := NewHeapSized(c, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := h2.AllocVars(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 5 {
		t.Fatalf("AllocVars returned %d", len(vars))
	}
	for _, v := range vars {
		if c.Owner(v.Data) != 0 || c.Owner(v.Ctr) != 0 {
			t.Errorf("var not on machine 0: %+v", v)
		}
	}
	if _, err := h2.AllocVars(1000); err == nil {
		t.Error("oversized AllocVars did not fail")
	}
}
