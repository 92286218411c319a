package memsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/latency"
)

// TestStoreWordsArguments covers the bad arguments. An op that is not a
// store, no values, a negative value, a range outside the topology
// (base+len overflowing included, as TestRFlushRangeRejectsOverflow checks
// for the ranged flush) is an error before any effect: nothing stored,
// counted or charged; LoadWords likewise. FuzzCluster holds a dead issuer
// and an owner partitioned partway through the range to the per-word
// loop.
func TestStoreWordsArguments(t *testing.T) {
	machines := []MachineConfig{
		{Name: "front", Mem: core.NonVolatile},
		{Name: "a", Mem: core.NonVolatile, Heap: 4},
		{Name: "b", Mem: core.NonVolatile, Heap: 4},
	}
	cfg := Config{Latency: latency.NewModel(), EvictEvery: 2, Seed: 5}
	c := NewCluster(machines, cfg)
	th := mustThread(t, c, 0)
	if err := th.LStore(1, 7); err != nil {
		t.Fatal(err)
	}
	stats, clock, state := c.Stats(), c.NowNS(), c.Snapshot()
	for _, r := range []struct {
		op   core.Op
		base core.LocID
		vals []core.Val
	}{
		{core.OpLoad, 0, []core.Val{1}},
		{core.OpLFlush, 0, []core.Val{1}},
		{core.OpLRMW, 0, []core.Val{1}},
		{core.OpLStore, 0, nil},
		{core.OpLStore, 0, []core.Val{}},
		{core.OpMStore, 0, []core.Val{1, -1, 2}},
		{core.OpRStore, 2, []core.Val{-5}},
		{core.OpLStore, 7, []core.Val{1, 2}},
		{core.OpLStore, 8, []core.Val{1}},
		{core.OpLStore, math.MaxInt, []core.Val{1}},
		{core.OpLStore, math.MaxInt - 1, []core.Val{1, 2, 3}},
		{core.OpLStore, -1, []core.Val{1, 2}},
	} {
		if err := th.StoreWords(r.op, r.base, r.vals); err == nil {
			t.Errorf("StoreWords(%v, %d, %v) accepted", r.op, r.base, r.vals)
		}
	}
	for _, r := range []struct {
		base core.LocID
		n    int
	}{{0, 0}, {7, 2}, {8, 1}, {math.MaxInt, 1}, {math.MaxInt - 1, 3}, {-1, 2}} {
		dst := make([]core.Val, r.n)
		if err := th.LoadWords(r.base, dst); err == nil {
			t.Errorf("LoadWords(%d, %d words) accepted", r.base, r.n)
		}
	}
	if got := c.Stats(); !reflect.DeepEqual(got, stats) {
		t.Errorf("rejected calls counted: Stats %v, was %v", got, stats)
	}
	if got := c.NowNS(); got != clock {
		t.Errorf("rejected calls charged: clock %v, was %v", got, clock)
	}
	if got := c.Snapshot(); !got.Equal(state) {
		t.Errorf("rejected calls moved the state: %v, was %v", got, state)
	}
}

// storeRecord stores one three-word record at the start of the i-th
// 48-line stretch of the owners' heaps, with LStore, and reads it back:
// the shape of kv's record write and read.
func storeRecord(tb testing.TB, th *Thread, i int, dst []core.Val) {
	base := core.LocID(i%64) * rangedCommitLines
	record := [3]core.Val{core.Val(i % 7), core.Val(i % 5), core.Val(i % 3)}
	if err := th.StoreWords(core.OpLStore, base, record[:]); err != nil {
		tb.Fatal(err)
	}
	if err := th.LoadWords(base, dst); err != nil {
		tb.Fatal(err)
	}
}

// TestStoreWordsDoesNotAllocate: a record's store and its read allocate
// nothing on a cluster whose pages exist.
func TestStoreWordsDoesNotAllocate(t *testing.T) {
	_, th := ownersCluster(t, 12, 12*64*rangedCommitLines)
	dst := make([]core.Val, 3)
	i := 0
	for ; i < 64; i++ {
		storeRecord(t, th, i, dst)
	}
	if allocs := testing.AllocsPerRun(500, func() { storeRecord(t, th, i, dst); i++ }); allocs != 0 {
		t.Errorf("a record's store and read allocate %v times", allocs)
	}
}

// BenchmarkStoreWords times one three-word record's store and read on 3
// and on 13 machines (the repository benchmark's update-ranged-12sh): a
// store asks only the machines that hold its word, so ns/op should not
// follow the machine count. The 1word cases time one LStore, the
// one-word StoreWords that LStore, RStore and MStore and kv's per-word
// store rules issue.
func BenchmarkStoreWords(b *testing.B) {
	for _, machines := range []int{3, 13} {
		b.Run(fmt.Sprintf("%dmachines", machines), func(b *testing.B) {
			_, th := ownersCluster(b, machines-1, (machines-1)*64*rangedCommitLines)
			dst := make([]core.Val, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				storeRecord(b, th, i, dst)
			}
		})
	}
	for _, machines := range []int{3, 13} {
		b.Run(fmt.Sprintf("1word/%dmachines", machines), func(b *testing.B) {
			_, th := ownersCluster(b, machines-1, (machines-1)*64*rangedCommitLines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := th.LStore(core.LocID(i%64)*rangedCommitLines, core.Val(i%7)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
