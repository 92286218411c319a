package memsim_test

import (
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/memsim"
)

// ExampleThread_RFlush shows the paper's LStore+RFlush persistence idiom:
// the store lands in the writer's cache and would be lost if the writer
// crashed, while after the remote flush the value is on the owner's
// physical medium and survives every crash.
func ExampleThread_RFlush() {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "host", Mem: core.NonVolatile, Heap: 0},
		{Name: "pool", Mem: core.NonVolatile, Heap: 4},
	}, memsim.Config{})
	th, _ := c.NewThread(0)
	x, _ := c.Alloc(1, 1)

	th.LStore(x, 42)
	fmt.Println("persisted after LStore: ", c.PersistedValue(x))
	th.RFlush(x)
	fmt.Println("persisted after RFlush: ", c.PersistedValue(x))

	c.Crash(0)
	c.Crash(1)
	fmt.Println("persisted after crashes:", c.PersistedValue(x))
	// Output:
	// persisted after LStore:  0
	// persisted after RFlush:  42
	// persisted after crashes: 42
}

// ExampleThread_RFlushRange persists a whole record — several consecutive
// locations — with a single ranged flush instead of one RFlush per word or
// a fabric-wide GPF.
func ExampleThread_RFlushRange() {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "host", Mem: core.NonVolatile, Heap: 0},
		{Name: "pool", Mem: core.NonVolatile, Heap: 8},
	}, memsim.Config{})
	th, _ := c.NewThread(0)
	rec, _ := c.Alloc(1, 3) // [key, value, checksum]

	th.LStore(rec, 7)
	th.LStore(rec+1, 700)
	th.LStore(rec+2, 707)
	th.RFlushRange(rec, 3) // one flush for the whole record

	c.Crash(0)
	c.Crash(1)
	fmt.Println(c.PersistedValue(rec), c.PersistedValue(rec+1), c.PersistedValue(rec+2))
	// Output:
	// 7 700 707
}

// Example builds a two-machine disaggregated system (a compute node and an
// NVM memory host) and shows how the store primitives differ in
// persistence: a value that is only cached dies with the memory host's
// cache, while an RFlushed or MStored one survives the crash.
func Example() {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "compute", Mem: core.NonVolatile, Heap: 8},
		{Name: "memhost", Mem: core.NonVolatile, Heap: 8},
	}, memsim.Config{})
	th, _ := c.NewThread(0)
	a, _ := c.Alloc(1, 3)
	b, d := a+1, a+2

	th.LStore(a, 1) // in the compute node's cache only
	th.LStore(b, 2)
	th.RFlush(b)    // forced to memhost's memory
	th.MStore(d, 3) // straight into memhost's memory
	th.LFlush(a)    // a=1 now sits only in memhost's volatile cache

	c.Crash(1)
	c.Recover(1)
	for _, l := range []core.LocID{a, b, d} {
		v, _ := th.Load(l)
		fmt.Println(v, c.PersistedValue(l))
	}
	// Output:
	// 0 0
	// 2 2
	// 3 3
}

// ExampleThread_GPF is a partitioned memory pool (§4): two hosts fill
// disjoint partitions of a pool node, one with LStores behind a Global
// Persistent Flush and one with MStores. The pool is its own failure
// domain, so both partitions survive the loss of every host.
func ExampleThread_GPF() {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "host1", Mem: core.Volatile, Heap: 8},
		{Name: "host2", Mem: core.Volatile, Heap: 8},
		{Name: "pool", Mem: core.NonVolatile, Heap: 128},
	}, memsim.Config{})
	part1, _ := c.Alloc(2, 4)
	part2, _ := c.Alloc(2, 4)
	t1, _ := c.NewThread(0)
	t2, _ := c.NewThread(1)
	for i := core.LocID(0); i < 4; i++ {
		t1.LStore(part1+i, core.Val(10+i))
		t2.MStore(part2+i, core.Val(20+i))
	}
	t1.GPF() // drains every cache in the coherence domain

	c.Crash(0)
	c.Crash(1)
	for i := core.LocID(0); i < 4; i++ {
		fmt.Println(c.PersistedValue(part1+i), c.PersistedValue(part2+i))
	}
	fmt.Println("RStore available in a partitioned pool:", core.PartitionedPool.Available(core.RoleHost, core.OpRStore))
	// Output:
	// 10 20
	// 11 21
	// 12 22
	// 13 23
	// RStore available in a partitioned pool: false
}
