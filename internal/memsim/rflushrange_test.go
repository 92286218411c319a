package memsim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/latency"
)

// TestRFlushRangePersistsExactlyTheRange: a ranged flush is the shard-local
// counterpart of GPF's planned-shutdown use: it makes its range crash-proof
// while leaving unrelated dirty lines alone.
func TestRFlushRangePersistsExactlyTheRange(t *testing.T) {
	for _, variant := range core.Variants {
		c := NewCluster([]MachineConfig{
			{Name: "host", Mem: core.NonVolatile, Heap: 0},
			{Name: "devA", Mem: core.NonVolatile, Heap: 8},
			{Name: "devB", Mem: core.NonVolatile, Heap: 8},
		}, Config{Variant: variant, Seed: 3})
		th, err := c.NewThread(0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Alloc(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Alloc(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := core.LocID(0); i < 4; i++ {
			if err := th.LStore(a+i, core.Val(i)+10); err != nil {
				t.Fatal(err)
			}
			if err := th.LStore(b+i, core.Val(i)+20); err != nil {
				t.Fatal(err)
			}
		}
		// Flush only devA's range; devB's lines stay dirty in the host
		// cache (no background eviction in this cluster).
		if err := th.RFlushRange(a, 4); err != nil {
			t.Fatal(err)
		}
		snap := c.Snapshot()
		for i := core.LocID(0); i < 4; i++ {
			if !snap.NoCacheHolds(a + i) {
				t.Fatalf("%v: a+%d still cached after RFlushRange", variant, i)
			}
		}
		c.Crash(0)
		c.Crash(1)
		c.Crash(2)
		for i := core.LocID(0); i < 4; i++ {
			if got := c.PersistedValue(a + i); got != core.Val(i)+10 {
				t.Errorf("%v: flushed a+%d = %d after crash, want %d", variant, i, got, core.Val(i)+10)
			}
			if got := c.PersistedValue(b + i); got != 0 {
				t.Errorf("%v: unflushed b+%d = %d survived without a flush", variant, i, got)
			}
		}
	}
}

// TestRFlushRangeCostIsClusterSizeIndependent: the charged cost of a ranged
// flush depends on the range (lines, owning devices), not on how many
// machines the fabric has — the property that makes commits built on it
// shard-local.
func TestRFlushRangeCostIsClusterSizeIndependent(t *testing.T) {
	flushCost := func(machines int) float64 {
		cfg := []MachineConfig{{Name: "host", Mem: core.NonVolatile, Heap: 0}}
		for i := 1; i < machines; i++ {
			cfg = append(cfg, MachineConfig{Name: "dev", Mem: core.NonVolatile, Heap: 16})
		}
		c := NewCluster(cfg, Config{Latency: latency.NewModel()})
		th, err := c.NewThread(0)
		if err != nil {
			t.Fatal(err)
		}
		base, err := c.Alloc(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := core.LocID(0); i < 8; i++ {
			if err := th.LStore(base+i, 1); err != nil {
				t.Fatal(err)
			}
		}
		before := c.NowNS()
		if err := th.RFlushRange(base, 8); err != nil {
			t.Fatal(err)
		}
		return c.NowNS() - before
	}
	small, large := flushCost(2), flushCost(9)
	if small != large {
		t.Errorf("RFlushRange cost grew with cluster size: %d machines %.0f ns, %d machines %.0f ns",
			2, small, 9, large)
	}
}

// TestRFlushRangeCheaperThanPerLineRFlush: one ranged flush of n lines is
// charged less than n separate RFlushes of the same lines.
func TestRFlushRangeCheaperThanPerLineRFlush(t *testing.T) {
	const n = 8
	run := func(ranged bool) float64 {
		c := NewCluster([]MachineConfig{
			{Name: "host", Mem: core.NonVolatile, Heap: 0},
			{Name: "dev", Mem: core.NonVolatile, Heap: n},
		}, Config{Latency: latency.NewModel()})
		th, err := c.NewThread(0)
		if err != nil {
			t.Fatal(err)
		}
		base, err := c.Alloc(1, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := core.LocID(0); i < n; i++ {
			if err := th.LStore(base+i, 5); err != nil {
				t.Fatal(err)
			}
		}
		before := c.NowNS()
		if ranged {
			if err := th.RFlushRange(base, n); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := core.LocID(0); i < n; i++ {
				if err := th.RFlush(base + i); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c.NowNS() - before
	}
	rangedNS, perLineNS := run(true), run(false)
	if rangedNS >= perLineNS {
		t.Errorf("RFlushRange of %d lines (%.0f ns) not below %d RFlushes (%.0f ns)",
			n, rangedNS, n, perLineNS)
	}
}

// TestRFlushRangeArguments covers the error paths: bad ranges and dead
// machines.
func TestRFlushRangeArguments(t *testing.T) {
	c := NewCluster([]MachineConfig{{Name: "m", Mem: core.NonVolatile, Heap: 4}}, Config{})
	th, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Alloc(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.RFlushRange(base, 0); err == nil {
		t.Error("zero-length range accepted")
	}
	if err := th.RFlushRange(base, 5); err == nil {
		t.Error("range past the heap accepted")
	}
	if err := th.RFlushRange(base, 4); err != nil {
		t.Errorf("full-heap range rejected: %v", err)
	}
	c.Crash(0)
	if err := th.RFlushRange(base, 1); !errors.Is(err, ErrCrashed) {
		t.Errorf("RFlushRange from a dead thread: %v", err)
	}
}

// TestRFlushRangeRejectsOverflow: a length that overflows base+n is a bad
// range like any other — an error before the cluster lock is taken, with
// nothing counted and nothing charged.
func TestRFlushRangeRejectsOverflow(t *testing.T) {
	c := NewCluster([]MachineConfig{{Name: "m", Mem: core.NonVolatile, Heap: 4}},
		Config{Latency: latency.NewModel()})
	th, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.LStore(1, 7); err != nil {
		t.Fatal(err)
	}
	stats, clock, state := c.Stats(), c.NowNS(), c.Snapshot()
	for _, r := range []struct {
		base core.LocID
		n    int
	}{{1, math.MaxInt}, {3, math.MaxInt - 2}, {4, 1}, {math.MaxInt, 1}, {-1, 2}} {
		if err := th.RFlushRange(r.base, r.n); err == nil {
			t.Errorf("RFlushRange(%d, %d) accepted", r.base, r.n)
		}
	}
	if got := c.Stats(); !reflect.DeepEqual(got, stats) {
		t.Errorf("rejected ranges counted: Stats %v, was %v", got, stats)
	}
	if got := c.NowNS(); got != clock {
		t.Errorf("rejected ranges charged: clock %v, was %v", got, clock)
	}
	if got := c.Snapshot(); !got.Equal(state) {
		t.Errorf("rejected ranges moved the state: %v, was %v", got, state)
	}
}

// TestRFlushRangeMatchesModelSemantics: after the runtime's ranged flush,
// the live model state satisfies exactly the LTS's enabling condition for
// the RFlushRange label — the runtime's "force the τ drains, then step" is
// conformant with core.Apply.
func TestRFlushRangeMatchesModelSemantics(t *testing.T) {
	c := NewCluster([]MachineConfig{
		{Name: "a", Mem: core.NonVolatile, Heap: 4},
		{Name: "b", Mem: core.NonVolatile, Heap: 4},
	}, Config{Seed: 7})
	ta, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.NewThread(1)
	if err != nil {
		t.Fatal(err)
	}
	baseA, _ := c.Alloc(0, 4)
	baseB, _ := c.Alloc(1, 4)
	// Cross stores: each machine dirties the other's lines.
	for i := core.LocID(0); i < 4; i++ {
		if err := ta.LStore(baseB+i, core.Val(i)+1); err != nil {
			t.Fatal(err)
		}
		if err := tb.LStore(baseA+i, core.Val(i)+5); err != nil {
			t.Fatal(err)
		}
	}
	if err := ta.RFlushRange(baseB, 4); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if got := core.Apply(snap, core.RFlushRangeL(0, baseB, 4), core.Base); len(got) != 1 {
		t.Fatal("RFlushRange label not enabled on the post-flush state")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// rangedCommitLines is the length of the range a ranged commit flushes:
// sixteen three-word records.
const rangedCommitLines = 48

// rangedCommit stores one record's three words at the start of the i-th
// 48-line range of the first device's heap and flushes the whole range,
// the shape of kv's ranged commit.
func rangedCommit(tb testing.TB, th *Thread, i int) {
	base := core.LocID(i%64) * rangedCommitLines
	for w := core.LocID(0); w < 3; w++ {
		if err := th.LStore(base+w, core.Val(i%7)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := th.RFlushRange(base, rangedCommitLines); err != nil {
		tb.Fatal(err)
	}
}

// TestRFlushRangeDoesNotAllocate: a ranged commit — its stores and its
// flush — allocates nothing on a cluster whose pages exist.
func TestRFlushRangeDoesNotAllocate(t *testing.T) {
	_, th := ownersCluster(t, 12, 12*64*rangedCommitLines)
	i := 0
	for ; i < 64; i++ {
		rangedCommit(t, th, i)
	}
	if allocs := testing.AllocsPerRun(500, func() { rangedCommit(t, th, i); i++ }); allocs != 0 {
		t.Errorf("a ranged commit allocates %v times", allocs)
	}
}

// BenchmarkRFlushRange times a ranged commit of 48 lines on 3 and on 13
// machines (the repository benchmark's update-ranged-12sh): the flush asks
// only the machines that hold a line, so ns/op should barely follow the
// machine count. The 1line cases time the one-line drain RFlush and the
// LWB load take — a store and an RFlush, a one-bit word step each way —
// which a 12 000-key preload of scan-flush-pooled pays per key.
func BenchmarkRFlushRange(b *testing.B) {
	for _, machines := range []int{3, 13} {
		b.Run(fmt.Sprintf("%dmachines", machines), func(b *testing.B) {
			_, th := ownersCluster(b, machines-1, (machines-1)*64*rangedCommitLines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rangedCommit(b, th, i)
			}
		})
	}
	for _, machines := range []int{3, 13} {
		b.Run(fmt.Sprintf("1line/%dmachines", machines), func(b *testing.B) {
			c, th := ownersCluster(b, machines-1, (machines-1)*64*rangedCommitLines)
			locs := c.Topology().NumLocs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := core.LocID(i * 97 % locs)
				if err := th.LStore(x, core.Val(i%7)); err != nil {
					b.Fatal(err)
				}
				if err := th.RFlush(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
