package memsim

import (
	"fmt"
	"runtime"
	"testing"

	"cxl0/internal/core"
)

// ownersMachines describes a front end owning nothing plus owners machines
// sharing locs locations evenly.
func ownersMachines(owners, locs int) []MachineConfig {
	machines := []MachineConfig{{Name: "front", Mem: core.NonVolatile}}
	for m := 0; m < owners; m++ {
		machines = append(machines, MachineConfig{Name: fmt.Sprintf("dev%d", m), Mem: core.NonVolatile, Heap: locs / owners})
	}
	return machines
}

// ownersCluster builds ownersMachines' cluster, with a thread on the front
// end.
func ownersCluster(tb testing.TB, owners, locs int) (*Cluster, *Thread) {
	tb.Helper()
	c := NewCluster(ownersMachines(owners, locs), Config{Seed: 1})
	return c, mustThread(tb, c, 0)
}

// TestChurnDoesNotAllocate: picking and applying an eviction allocates
// nothing — no slice of enabled steps is built to pick one from.
func TestChurnDoesNotAllocate(t *testing.T) {
	c, th := ownersCluster(t, 2, 1024)
	for x := core.LocID(0); x < 1024; x++ {
		if err := th.LStore(x, 1); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() { c.Churn(1) }); allocs != 0 {
		t.Errorf("Churn(1) allocates %v times per call", allocs)
	}
	if c.Snapshot().CachesEmpty() {
		t.Fatal("caches drained before the measurement ended: some calls evicted nothing")
	}
}

// churnShapes are the two ends BenchmarkChurn and BenchmarkNewCluster
// measure: a toy cluster, and the repository benchmark's
// update-ranged-12sh.
var churnShapes = []struct{ machines, locs int }{{2, 64}, {13, 221256}}

// TestStateFootprint: a fresh cluster costs what its memory and its
// per-machine tables cost, not machines × locations cache cells — the
// largest benchmark shape took 25 MB when every ⊥ was written out — and is
// built from a few dozen allocations, none of them per location.
func TestStateFootprint(t *testing.T) {
	const owners, locs = 12, 221256
	machines := ownersMachines(owners, locs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewCluster(machines, Config{Seed: 1})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 6<<20 {
		t.Errorf("a %d × %d cluster allocates %d bytes, want at most 6 MB", 1+owners, locs, got)
	}
	if objects := testing.AllocsPerRun(3, func() { NewCluster(machines, Config{Seed: 1}) }); objects > 64 {
		t.Errorf("a %d × %d cluster is %v allocations, want at most 64", 1+owners, locs, objects)
	}
}

// BenchmarkNewCluster times building a cluster at both shapes: the cost
// must follow machines and locations, not their product.
func BenchmarkNewCluster(b *testing.B) {
	for _, size := range churnShapes {
		b.Run(fmt.Sprintf("%dx%d", size.machines, size.locs), func(b *testing.B) {
			machines := ownersMachines(size.machines-1, size.locs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewCluster(machines, Config{Seed: 1})
			}
		})
	}
}

// BenchmarkChurn times one eviction on a small and on a large state (the
// repository benchmark's update-ranged-12sh shape): ns/op must not follow
// the machines × locations product.
func BenchmarkChurn(b *testing.B) {
	for _, size := range churnShapes {
		b.Run(fmt.Sprintf("%dx%d", size.machines, size.locs), func(b *testing.B) {
			c, th := ownersCluster(b, size.machines-1, size.locs)
			// 32 dirty lines spread over the whole heap, two steps each
			// (front end → owner's cache → memory), topped up off the clock.
			const lines = 32
			stride := core.LocID(c.Topology().NumLocs() / lines)
			for i := 0; i < b.N; i++ {
				if i%(2*lines) == 0 {
					b.StopTimer()
					for k := core.LocID(0); k < lines; k++ {
						if err := th.LStore(k*stride, 1); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				c.Churn(1)
			}
		})
	}
}
