package memsim

import (
	"errors"
	"math"
	"sync"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/latency"
)

func pair(t *testing.T, cfg Config) (*Cluster, *Thread, *Thread) {
	t.Helper()
	c := NewCluster([]MachineConfig{
		{Name: "m1", Mem: core.NonVolatile, Heap: 64},
		{Name: "m2", Mem: core.NonVolatile, Heap: 64},
	}, cfg)
	t1, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.NewThread(1)
	if err != nil {
		t.Fatal(err)
	}
	return c, t1, t2
}

func TestStoreLoadRoundTrip(t *testing.T) {
	c, t1, t2 := pair(t, Config{})
	x, err := c.Alloc(1, 1) // owned by m2
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.LStore(x, 7); err != nil {
		t.Fatal(err)
	}
	for _, th := range []*Thread{t1, t2} {
		v, err := th.Load(x)
		if err != nil || v != 7 {
			t.Errorf("load = %d, %v; want 7", v, err)
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestLStoreLostOnOwnerCrash(t *testing.T) {
	c, t1, _ := pair(t, Config{})
	x, _ := c.Alloc(1, 1) // owned by m2
	if err := t1.LStore(x, 9); err != nil {
		t.Fatal(err)
	}
	// Push the value into m2's cache (but not memory), then crash m2.
	if err := t1.LFlush(x); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	c.Recover(1)
	if v, _ := t1.Load(x); v != 0 {
		t.Errorf("value survived in %v; want lost (0), got %d", c.Snapshot(), v)
	}
}

func TestRFlushPersists(t *testing.T) {
	c, t1, _ := pair(t, Config{})
	x, _ := c.Alloc(1, 1)
	if err := t1.LStore(x, 9); err != nil {
		t.Fatal(err)
	}
	if err := t1.RFlush(x); err != nil {
		t.Fatal(err)
	}
	if got := c.PersistedValue(x); got != 9 {
		t.Fatalf("persisted value = %d, want 9", got)
	}
	c.Crash(1)
	c.Recover(1)
	if v, _ := t1.Load(x); v != 9 {
		t.Errorf("flushed value lost: got %d", v)
	}
}

func TestMStorePersistsImmediately(t *testing.T) {
	c, t1, _ := pair(t, Config{})
	x, _ := c.Alloc(1, 1)
	if err := t1.MStore(x, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.PersistedValue(x); got != 5 {
		t.Errorf("MStore not persistent: %d", got)
	}
}

func TestVolatileMemoryResetsOnCrash(t *testing.T) {
	c := NewCluster([]MachineConfig{
		{Name: "nvm", Mem: core.NonVolatile, Heap: 4},
		{Name: "vol", Mem: core.Volatile, Heap: 4},
	}, Config{})
	th, _ := c.NewThread(0)
	a, _ := c.Alloc(0, 1)
	b, _ := c.Alloc(1, 1)
	if err := th.MStore(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := th.MStore(b, 2); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	c.Recover(1)
	if v := c.PersistedValue(a); v != 1 {
		t.Errorf("NVM value lost: %d", v)
	}
	if v := c.PersistedValue(b); v != 0 {
		t.Errorf("volatile value survived its machine's crash: %d", v)
	}
}

func TestCrashKillsThreads(t *testing.T) {
	c, t1, t2 := pair(t, Config{})
	x, _ := c.Alloc(0, 1)
	c.Crash(0)
	if err := t1.LStore(x, 1); !errors.Is(err, ErrCrashed) {
		t.Errorf("op on crashed machine: err = %v, want ErrCrashed", err)
	}
	// Peers keep running.
	if _, err := t2.Load(x); err != nil {
		t.Errorf("peer thread affected by crash: %v", err)
	}
	// A thread created before recovery fails; after recovery it works.
	if _, err := c.NewThread(0); err == nil {
		t.Errorf("NewThread on downed machine succeeded")
	}
	c.Recover(0)
	t1b, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1b.LStore(x, 1); err != nil {
		t.Errorf("recovered thread: %v", err)
	}
	// The old thread stays dead even after recovery (fresh identities only).
	if err := t1.LStore(x, 1); !errors.Is(err, ErrCrashed) {
		t.Errorf("stale thread resurrected: %v", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	c := NewCluster([]MachineConfig{{Name: "m", Mem: core.NonVolatile, Heap: 3}}, Config{})
	if _, err := c.Alloc(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc(0, 2); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("over-allocation: err = %v", err)
	}
	if _, err := c.Alloc(0, 1); err != nil {
		t.Errorf("remaining capacity unusable: %v", err)
	}
}

// A negative size used to pass the capacity check and move the heap
// pointer backwards, so the next Alloc handed out words already in use.
func TestAllocRejectsNegativeSize(t *testing.T) {
	c := NewCluster([]MachineConfig{{Name: "m", Mem: core.NonVolatile, Heap: 8}}, Config{})
	first, err := c.Alloc(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc(0, -4); err == nil {
		t.Error("Alloc(-4) succeeded")
	}
	next, err := c.Alloc(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if next < first+4 {
		t.Errorf("Alloc after a negative request returned %d, inside the live block [%d,%d)", next, first, first+4)
	}
}

// A size near the top of int used to overflow the capacity check's sum,
// pass it, and leave the heap pointer negative: the next Alloc handed out a
// negative location.
func TestAllocRejectsOverflowingSize(t *testing.T) {
	c := NewCluster([]MachineConfig{{Name: "m", Mem: core.NonVolatile, Heap: 8}}, Config{})
	first, err := c.Alloc(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := c.Alloc(0, math.MaxInt); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc(MaxInt) with 4 of 8 used = %d, %v; want ErrOutOfMemory", l, err)
	}
	if next, err := c.Alloc(0, 4); err != nil || next != first+4 {
		t.Errorf("Alloc(4) after the rejected request = %d, %v; want %d at the old cursor", next, err, first+4)
	}
}

func TestConcurrentFAA(t *testing.T) {
	c, _, _ := pair(t, Config{EvictEvery: 3, Seed: 42})
	x, _ := c.Alloc(0, 1)
	const perThread = 200
	var wg sync.WaitGroup
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m core.MachineID) {
			defer wg.Done()
			th, err := c.NewThread(m)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perThread; i++ {
				if _, err := th.FAA(core.OpLRMW, x, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(core.MachineID(m))
	}
	wg.Wait()
	th, _ := c.NewThread(0)
	v, err := th.Load(x)
	if err != nil || v != 2*perThread {
		t.Errorf("counter = %d, %v; want %d", v, err, 2*perThread)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestConcurrentCASMutualExclusion(t *testing.T) {
	c, _, _ := pair(t, Config{EvictEvery: 2, Seed: 7})
	x, _ := c.Alloc(1, 1)
	wins := make(chan int, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th, err := c.NewThread(core.MachineID(i % 2))
			if err != nil {
				t.Error(err)
				return
			}
			ok, err := th.CAS(core.OpLRMW, x, 0, core.Val(i+1))
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				wins <- i
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Errorf("%d CAS winners, want exactly 1", n)
	}
}

func TestChurnPreservesInvariantAndValues(t *testing.T) {
	c, t1, t2 := pair(t, Config{Seed: 3})
	x, _ := c.Alloc(0, 1)
	y, _ := c.Alloc(1, 1)
	if err := t1.LStore(x, 11); err != nil {
		t.Fatal(err)
	}
	if err := t2.LStore(y, 22); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Churn(1)
		if err := c.CheckInvariant(); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
		if v, _ := t1.Load(x); v != 11 {
			t.Fatalf("churn %d: x = %d", i, v)
		}
		if v, _ := t2.Load(y); v != 22 {
			t.Fatalf("churn %d: y = %d", i, v)
		}
	}
}

func TestSimulatedClockChargesRemotePremium(t *testing.T) {
	mdl := latency.NewModel()
	c := NewCluster([]MachineConfig{
		{Name: "m1", Mem: core.NonVolatile, Heap: 8},
		{Name: "m2", Mem: core.NonVolatile, Heap: 8},
	}, Config{Latency: mdl})
	th, _ := c.NewThread(0)
	local, _ := c.Alloc(0, 1)
	remote, _ := c.Alloc(1, 1)

	start := c.NowNS()
	if err := th.MStore(local, 1); err != nil {
		t.Fatal(err)
	}
	localCost := c.NowNS() - start

	start = c.NowNS()
	if err := th.MStore(remote, 1); err != nil {
		t.Fatal(err)
	}
	remoteCost := c.NowNS() - start

	if localCost <= 0 || remoteCost <= localCost {
		t.Errorf("MStore costs: local %.0f, remote %.0f; want 0 < local < remote", localCost, remoteCost)
	}
	ratio := remoteCost / localCost
	if ratio < 1.5 || ratio > 3.5 {
		t.Errorf("remote/local MStore ratio %.2f outside plausible band", ratio)
	}
}

// TestDegradeRejectsNonFiniteFactor: a factor that is not a finite number
// >= 1 reads as 1. NaN passed the old `factor < 1` clamp and the first
// primitive the device served made the clock NaN for good.
func TestDegradeRejectsNonFiniteFactor(t *testing.T) {
	c := NewCluster([]MachineConfig{
		{Name: "m1", Mem: core.NonVolatile, Heap: 8},
		{Name: "m2", Mem: core.NonVolatile, Heap: 8},
	}, Config{Latency: latency.NewModel()})
	th, _ := c.NewThread(0)
	remote, _ := c.Alloc(1, 1)
	mstore := func() float64 {
		t.Helper()
		start := c.NowNS()
		if err := th.MStore(remote, 1); err != nil {
			t.Fatal(err)
		}
		return c.NowNS() - start
	}
	undegraded := mstore()
	for _, tc := range []struct{ factor, want float64 }{
		{math.NaN(), 1}, {math.Inf(1), 1}, {math.Inf(-1), 1}, {-3, 1}, {0.5, 1}, {8, 8},
	} {
		c.Degrade(1, tc.factor)
		if got := c.DegradeFactor(1); got != tc.want {
			t.Errorf("Degrade(1, %v): DegradeFactor = %v, want %v", tc.factor, got, tc.want)
		}
		if cost := mstore(); cost != undegraded*tc.want {
			t.Errorf("Degrade(1, %v): an MStore cost %v, want %v x the undegraded %v", tc.factor, cost, tc.want, undegraded)
		}
		if now := c.NowNS(); math.IsNaN(now) || math.IsInf(now, 0) {
			t.Fatalf("Degrade(1, %v) left the clock at %v", tc.factor, now)
		}
	}
}

// TestNowNSBesidePrimitives reads the clock from goroutines that hold no
// lock while others run primitives: every reader must see it only move
// forward, and it ends on the sum of what was charged (run under -race).
func TestNowNSBesidePrimitives(t *testing.T) {
	c := NewCluster([]MachineConfig{
		{Name: "m1", Mem: core.NonVolatile, Heap: 8},
		{Name: "m2", Mem: core.NonVolatile, Heap: 8},
	}, Config{Latency: latency.NewModel()})
	x, _ := c.Alloc(1, 1)
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for last := 0.0; ; {
				now := c.NowNS()
				if now < last {
					t.Errorf("the clock went back: %v after %v", now, last)
					return
				}
				last = now
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	const stores = 500
	for w := 0; w < 2; w++ {
		th, _ := c.NewThread(core.MachineID(w))
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < stores; i++ {
				if err := th.MStore(x, core.Val(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	// The interleaving picks the order the costs were added in, hence the
	// tolerance.
	lat := latency.NewModel()
	want := stores * (lat.CXL0CostCached(core.OpMStore, false, false) + lat.CXL0CostCached(core.OpMStore, true, false))
	if got := c.NowNS(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("clock = %v after %d remote and %d local MStores, want %v", got, stores, stores, want)
	}
}

func TestLWBRuntimeLoadDrains(t *testing.T) {
	c := NewCluster([]MachineConfig{
		{Name: "m1", Mem: core.NonVolatile, Heap: 4},
		{Name: "m2", Mem: core.NonVolatile, Heap: 4},
	}, Config{Variant: core.LWB})
	t1, _ := c.NewThread(0)
	t2, _ := c.NewThread(1)
	x, _ := c.Alloc(0, 1)
	if err := t2.LStore(x, 6); err != nil { // line sits in m2's cache
		t.Fatal(err)
	}
	v, err := t1.Load(x) // LWB: must drain to memory first
	if err != nil || v != 6 {
		t.Fatalf("LWB load = %d, %v", v, err)
	}
	if got := c.PersistedValue(x); got != 6 {
		t.Errorf("LWB load did not write back: persisted = %d", got)
	}
}

func TestFailedCASActsAsRead(t *testing.T) {
	c, t1, _ := pair(t, Config{})
	x, _ := c.Alloc(1, 1)
	if err := t1.MStore(x, 3); err != nil {
		t.Fatal(err)
	}
	ok, err := t1.CAS(core.OpLRMW, x, 7, 8)
	if err != nil || ok {
		t.Fatalf("CAS should fail cleanly: ok=%v err=%v", ok, err)
	}
	if v, _ := t1.Load(x); v != 3 {
		t.Errorf("failed CAS changed the value: %d", v)
	}
}
