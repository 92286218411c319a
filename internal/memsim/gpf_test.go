package memsim

import (
	"fmt"
	"testing"

	"cxl0/internal/core"
)

// TestGPFPlannedShutdown exercises the paper's intended GPF use case: drain
// every cache before a planned whole-system shutdown, so that nothing is
// lost no matter which machines fail afterwards.
func TestGPFPlannedShutdown(t *testing.T) {
	c := NewCluster([]MachineConfig{
		{Name: "h1", Mem: core.NonVolatile, Heap: 8},
		{Name: "h2", Mem: core.NonVolatile, Heap: 8},
		{Name: "pool", Mem: core.NonVolatile, Heap: 32},
	}, Config{Seed: 2})
	t1 := mustThread(t, c, 0)
	t2 := mustThread(t, c, 1)
	base, err := c.Alloc(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Scatter unflushed stores from both hosts across the pool.
	for i := core.LocID(0); i < 8; i++ {
		th := t1
		if i%2 == 1 {
			th = t2
		}
		if err := th.LStore(base+i, core.Val(i)+10); err != nil {
			t.Fatal(err)
		}
	}
	// Values are dirty somewhere in the hierarchy; a GPF drains them all.
	if err := t1.GPF(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if !snap.CachesEmpty() {
		t.Fatalf("caches not empty after GPF: %v", snap)
	}
	// Now the whole system can go down; the pool keeps everything.
	c.Crash(0)
	c.Crash(1)
	c.Crash(2)
	for i := core.LocID(0); i < 8; i++ {
		if got := c.PersistedValue(base + i); got != core.Val(i)+10 {
			t.Errorf("pool[%d] = %d after full shutdown, want %d", i, got, core.Val(i)+10)
		}
	}
}

// TestGPFOnDeadMachineFails: a crashed machine cannot issue a GPF.
func TestGPFOnDeadMachineFails(t *testing.T) {
	c := NewCluster([]MachineConfig{{Name: "m", Mem: core.NonVolatile, Heap: 4}}, Config{})
	th := mustThread(t, c, 0)
	c.Crash(0)
	if err := th.GPF(); err == nil {
		t.Fatal("GPF from a dead thread succeeded")
	}
}

// TestSnapshotIsACopy ensures Snapshot isolates callers from the live
// state.
func TestSnapshotIsACopy(t *testing.T) {
	c := NewCluster([]MachineConfig{{Name: "m", Mem: core.NonVolatile, Heap: 4}}, Config{})
	th, _ := c.NewThread(0)
	x, _ := c.Alloc(0, 1)
	if err := th.MStore(x, 5); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if err := th.MStore(x, 6); err != nil {
		t.Fatal(err)
	}
	if snap.Mem(x) != 5 {
		t.Errorf("snapshot mutated by later store: %d", snap.Mem(x))
	}
}

// groupCommit stores sixteen three-word records from the front end, one on
// each device in turn at the i-th 48-line stretch of its heap, and drains
// every cache with one GPF: the shape of kv's group commit, 48 dirty lines
// over several owners and words.
func groupCommit(tb testing.TB, th *Thread, owners, i int) {
	heap := th.Cluster().Topology().NumLocs() / owners
	for r := 0; r < rangedCommitLines/3; r++ {
		base := core.LocID(r%owners*heap + i%64*rangedCommitLines + r/owners*3)
		for w := core.LocID(0); w < 3; w++ {
			if err := th.LStore(base+w, core.Val(i%7)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := th.GPF(); err != nil {
		tb.Fatal(err)
	}
}

// TestGPFDoesNotAllocate: a group commit — its stores and the GPF's drain
// of 48 lines — allocates nothing on a cluster whose pages exist.
func TestGPFDoesNotAllocate(t *testing.T) {
	const owners = 12
	c, th := ownersCluster(t, owners, owners*64*rangedCommitLines)
	i := 0
	for ; i < 64; i++ {
		groupCommit(t, th, owners, i)
	}
	if allocs := testing.AllocsPerRun(500, func() { groupCommit(t, th, owners, i); i++ }); allocs != 0 {
		t.Errorf("a group commit allocates %v times", allocs)
	}
	if !c.Snapshot().CachesEmpty() {
		t.Fatal("a GPF left lines cached")
	}
}

// BenchmarkGPF times a group commit of 48 lines on 5 and on 13 machines:
// the drain walks the held lines a word step at a time, so ns/op should
// follow the words the lines fall in more than the machine count.
func BenchmarkGPF(b *testing.B) {
	for _, machines := range []int{5, 13} {
		b.Run(fmt.Sprintf("%dmachines", machines), func(b *testing.B) {
			owners := machines - 1
			_, th := ownersCluster(b, owners, owners*64*rangedCommitLines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groupCommit(b, th, owners, i)
			}
		})
	}
}
