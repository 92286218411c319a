package ds_test

import (
	"fmt"
	"sync"

	"cxl0/internal/core"
	"cxl0/internal/ds"
	"cxl0/internal/flit"
	"cxl0/internal/memsim"
)

// ExampleQueue is a durable job queue: a Michael–Scott queue made durably
// linearizable by the FliT-for-CXL0 transformation (§6, Algorithm 2). Two
// producer machines enqueue jobs concurrently into a queue on an NVM
// memory host; the host crashes, and after recovery every acknowledged
// job is still there. The producers race, so only counts are printed.
func ExampleQueue() {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "producerA", Mem: core.NonVolatile, Heap: 16},
		{Name: "producerB", Mem: core.NonVolatile, Heap: 16},
		{Name: "memhost", Mem: core.NonVolatile, Heap: 4096},
	}, memsim.Config{EvictEvery: 5, Seed: 42})
	heap, _ := flit.NewHeap(c, 2)
	session := func(m core.MachineID) *flit.Session {
		th, _ := c.NewThread(m)
		return flit.NewSession(flit.CXL0FliT, th)
	}
	queue, _ := ds.NewQueue(heap, session(0))

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[core.Val]bool{}
	)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(se *flit.Session) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				job := core.Val(100*(p+1) + i)
				if queue.Enqueue(se, job) == nil {
					mu.Lock()
					acked[job] = true
					mu.Unlock()
				}
			}
		}(session(core.MachineID(p)))
	}
	wg.Wait()

	c.Crash(2)
	c.Recover(2)
	se := session(0)
	queue.Recover(se)
	drained, _ := queue.Drain(se)
	survived := 0
	for _, job := range drained {
		if acked[job] {
			survived++
		}
	}
	fmt.Printf("acknowledged %d, recovered %d, of which acknowledged %d\n", len(acked), len(drained), survived)
	// Output:
	// acknowledged 10, recovered 10, of which acknowledged 10
}

// ExampleMap is a session store on a disaggregated NVM pool: three app
// servers write sessions concurrently into a FliT-transformed hash map,
// the pool crashes, then an app server crashes right after an
// acknowledged write. Every acknowledged session stays readable.
func ExampleMap() {
	const pool = core.MachineID(3)
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "app1", Mem: core.NonVolatile, Heap: 16},
		{Name: "app2", Mem: core.NonVolatile, Heap: 16},
		{Name: "app3", Mem: core.NonVolatile, Heap: 16},
		{Name: "pool", Mem: core.NonVolatile, Heap: 8192},
	}, memsim.Config{EvictEvery: 4, Seed: 7})
	heap, _ := flit.NewHeap(c, pool)
	sessions, _ := ds.NewMap(heap, 16)
	session := func(m core.MachineID) *flit.Session {
		th, _ := c.NewThread(m)
		return flit.NewSession(flit.CXL0FliT, th)
	}
	verify := func() {
		snap, _ := sessions.Snapshot(session(0))
		intact := 0
		for user, data := range snap {
			if data == user*100 {
				intact++
			}
		}
		fmt.Printf("%d sessions readable, %d intact\n", len(snap), intact)
	}

	var wg sync.WaitGroup
	for app := 0; app < 3; app++ {
		wg.Add(1)
		go func(se *flit.Session) {
			defer wg.Done()
			for u := 0; u < 4; u++ {
				user := core.Val(app*10 + u)
				sessions.Put(se, user, user*100)
			}
		}(session(core.MachineID(app)))
	}
	wg.Wait()

	c.Crash(pool)
	c.Recover(pool)
	verify()

	sessions.Put(session(1), 99, 9900)
	c.Crash(1)
	c.Recover(1)
	verify()
	// Output:
	// 12 sessions readable, 12 intact
	// 13 sessions readable, 13 intact
}
