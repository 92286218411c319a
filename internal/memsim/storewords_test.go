package memsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/latency"
)

// storeWordByWord is the loop StoreWords replaces: every word its own
// primitive — the lock taken, the issuer and the line's owner checked, the
// store stepped as a label through stepLocked — stopping at the first
// error.
func storeWordByWord(th *Thread, op core.Op, base core.LocID, vals []core.Val) error {
	for i, v := range vals {
		x := base + core.LocID(i)
		err := func() error {
			th.c.mu.Lock()
			defer th.c.mu.Unlock()
			owner, err := th.beginLocked(x)
			if err != nil {
				return err
			}
			th.c.stepLocked(core.Label{Op: op, M: th.m, Loc: x, Val: v}, owner, false)
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// loadWordByWord is the loop LoadWords replaces: one Load per word,
// stopping at the first error.
func loadWordByWord(th *Thread, base core.LocID, dst []core.Val) error {
	for i := range dst {
		v, err := th.Load(base + core.LocID(i))
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// sameCluster reports how b differs from a, which must have been built
// alike: the state's cells and memory, the clean-copy overlay (every machine's lines and warm
// mask), the clock's bits, the primitive counts and the eviction clock.
func sameCluster(a, b *Cluster) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	// Two clusters have two topologies, which State.Equal tells apart; the
	// key is the states' cells and memory.
	if a.st.Key() != b.st.Key() {
		return fmt.Errorf("states differ:\n%v\n%v", a.st, b.st)
	}
	for m := range a.hot.lines {
		for w := 0; w<<6 < a.topo.NumLocs(); w++ {
			at := core.LocID(w << 6)
			if x, y := a.hot.lines[m].Word(w), b.hot.lines[m].Word(w); x != y {
				return fmt.Errorf("machine %d's clean copies of word %d: %#x and %#x", m, w, x, y)
			}
			if x, y := a.hot.warm.Has(core.MachineID(m), at), b.hot.warm.Has(core.MachineID(m), at); x != y {
				return fmt.Errorf("machine %d warm for word %d: %v and %v", m, w, x, y)
			}
		}
	}
	if x, y := a.clockBits.Load(), b.clockBits.Load(); x != y || a.clockNS != b.clockNS {
		return fmt.Errorf("clocks %v and %v", math.Float64frombits(x), math.Float64frombits(y))
	}
	if a.opStats != b.opStats || a.opCount != b.opCount {
		return fmt.Errorf("counts %v (%d ticks) and %v (%d ticks)", a.opStats, a.opCount, b.opStats, b.opCount)
	}
	return nil
}

// sameErr reports whether two errors are both nil or say the same thing.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestStoreWordsMatchesPerWordLoop holds StoreWords and LoadWords to the
// per-word loops they replace, bit for bit, on random clusters: two alike
// clusters run one seeded script, one with the record calls, the other
// with the loops, and after every step their states (cells and memory), overlays, clock bits,
// counts and eviction clocks must be equal, and at the end their next
// eviction draw. The clusters have two to five owners with heaps that
// share occupancy words, evict every 0–8 primitives, run Base, PSN and
// LWB, and charge a latency model on degraded devices; the script's
// records straddle occupancy words, owner runs (shared words among them)
// and eviction draws, and crashes and partitions make some fail partway.
func TestStoreWordsMatchesPerWordLoop(t *testing.T) {
	var straddles struct{ word, owner, shared, draw, failed int }
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		machines := []MachineConfig{{Name: "front", Mem: core.NonVolatile}}
		for m := range 2 + rng.Intn(4) {
			mem := core.NonVolatile
			if rng.Intn(3) == 0 {
				mem = core.Volatile
			}
			machines = append(machines, MachineConfig{Name: fmt.Sprintf("dev%d", m), Mem: mem, Heap: 1 + rng.Intn(150)})
		}
		cfg := Config{
			Variant:    core.Variants[rng.Intn(len(core.Variants))],
			EvictEvery: rng.Intn(9),
			Seed:       seed,
			Latency:    latency.NewModel(),
		}
		a, b := NewCluster(machines, cfg), NewCluster(machines, cfg)
		for m := range machines {
			if f := []float64{1, 1, 1.5, 4}[rng.Intn(4)]; f > 1 {
				a.Degrade(core.MachineID(m), f)
				b.Degrade(core.MachineID(m), f)
			}
		}
		ta, tb := make([]*Thread, len(machines)), make([]*Thread, len(machines))
		fresh := func(m int) {
			var err error
			if ta[m], err = a.NewThread(core.MachineID(m)); err != nil {
				t.Fatal(err)
			}
			if tb[m], err = b.NewThread(core.MachineID(m)); err != nil {
				t.Fatal(err)
			}
		}
		for m := range machines {
			fresh(m)
		}
		locs := a.Topology().NumLocs()
		for round := 0; round < 150; round++ {
			m := rng.Intn(len(machines))
			n := 1 + rng.Intn(8)
			base := core.LocID(rng.Intn(locs))
			if rng.Intn(2) == 0 { // just before the next word, or the end of base's owner stretch
				_, past := a.topo.OwnerThrough(base)
				edge := []int{int(base)&^63 + 64, int(past)}[rng.Intn(2)]
				base = core.LocID(min(max(0, edge-1-rng.Intn(4)), locs-1))
			}
			n = min(n, locs-int(base))
			store := func() (errA, errB error) {
				op := []core.Op{core.OpLStore, core.OpRStore, core.OpMStore}[rng.Intn(3)]
				vals := make([]core.Val, n)
				for i := range vals {
					vals[i] = core.Val(rng.Intn(50))
				}
				last := base + core.LocID(n-1)
				if int(base)>>6 != int(last)>>6 {
					straddles.word++
				}
				if a.Owner(base) != a.Owner(last) {
					straddles.owner++
					if int(base)>>6 == int(last)>>6 {
						straddles.shared++
					}
				}
				if e := uint64(cfg.EvictEvery); e > 0 && a.opCount%e+uint64(n) > e {
					straddles.draw++
				}
				return ta[m].StoreWords(op, base, vals), storeWordByWord(tb[m], op, base, vals)
			}
			var errA, errB error
			switch k := rng.Intn(20); {
			case k < 12:
				errA, errB = store()
			case k < 16:
				da, db := make([]core.Val, n), make([]core.Val, n)
				errA = ta[m].LoadWords(base, da)
				errB = loadWordByWord(tb[m], base, db)
				if !reflect.DeepEqual(da, db) {
					t.Fatalf("seed %d round %d: LoadWords(%d) read %v, the loop %v", seed, round, base, da, db)
				}
			case k < 17:
				errA, errB = ta[m].RFlushRange(base, n), tb[m].RFlushRange(base, n)
			case k < 18:
				a.Churn(3)
				b.Churn(3)
			case k < 19:
				if m > 0 {
					a.Crash(core.MachineID(m))
					b.Crash(core.MachineID(m))
					a.Recover(core.MachineID(m))
					b.Recover(core.MachineID(m))
					fresh(m)
				}
			default:
				// A store with the owner of the record's last line cut off:
				// it fails there, or at its first line.
				down := a.Owner(base + core.LocID(n-1))
				a.Partition(down)
				b.Partition(down)
				errA, errB = store()
				a.Heal(down)
				b.Heal(down)
			}
			if !sameErr(errA, errB) {
				t.Fatalf("seed %d round %d: the record call returned %v, the loop %v", seed, round, errA, errB)
			}
			if errA != nil {
				straddles.failed++
			}
			if err := sameCluster(a, b); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
		if x, y := a.rng.Int63(), b.rng.Int63(); x != y {
			t.Fatalf("seed %d: the next eviction draws part: %d and %d", seed, x, y)
		}
	}
	t.Logf("records across a word %d, an owner run %d (inside a word %d), a draw %d; failed calls %d",
		straddles.word, straddles.owner, straddles.shared, straddles.draw, straddles.failed)
	if straddles.word < 50 || straddles.owner < 50 || straddles.shared < 20 || straddles.draw < 50 || straddles.failed < 20 {
		t.Fatalf("records across a word %d, an owner run %d (inside a word %d), a draw %d, failed %d: the script is too thin",
			straddles.word, straddles.owner, straddles.shared, straddles.draw, straddles.failed)
	}
}

// TestStoreWordsArguments covers the error paths. A bad argument — an op
// that is not a store, no values, a negative value, a range outside the
// topology (base+len overflowing included, as TestRFlushRangeRejectsOverflow
// checks for the ranged flush) — is an error before any effect: nothing
// stored, counted or charged. A dead issuer, and an owner partitioned
// partway through the range, return the per-word loop's error and leave its
// partial state; LoadWords likewise.
func TestStoreWordsArguments(t *testing.T) {
	machines := []MachineConfig{
		{Name: "front", Mem: core.NonVolatile},
		{Name: "a", Mem: core.NonVolatile, Heap: 4},
		{Name: "b", Mem: core.NonVolatile, Heap: 4},
	}
	cfg := Config{Latency: latency.NewModel(), EvictEvery: 2, Seed: 5}
	c := NewCluster(machines, cfg)
	th, err := c.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
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

	// The same failures on two alike clusters, one through the record
	// calls and one through the loops: a record from a's last two lines
	// into b's first two, with b partitioned, then from a crashed issuer.
	a, b := NewCluster(machines, cfg), NewCluster(machines, cfg)
	ta, err := a.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	record := []core.Val{11, 12, 13, 14}
	for _, op := range []core.Op{core.OpLStore, core.OpRStore, core.OpMStore} {
		a.Partition(2)
		b.Partition(2)
		errA, errB := ta.StoreWords(op, 2, record), storeWordByWord(tb, op, 2, record)
		if !errors.Is(errA, ErrUnreachable) || !sameErr(errA, errB) {
			t.Errorf("%v across a partitioned owner: %v, the loop %v", op, errA, errB)
		}
		da, db := make([]core.Val, 4), make([]core.Val, 4)
		errA, errB = ta.LoadWords(2, da), loadWordByWord(tb, 2, db)
		if !errors.Is(errA, ErrUnreachable) || !sameErr(errA, errB) || !reflect.DeepEqual(da, db) || da[1] == 0 {
			t.Errorf("LoadWords across a partitioned owner: %v %v, the loop %v %v", errA, da, errB, db)
		}
		if err := sameCluster(a, b); err != nil {
			t.Fatalf("%v across a partitioned owner: %v", op, err)
		}
		if got := a.Snapshot().Readable(3); got != record[1] {
			t.Errorf("%v across a partitioned owner: a's last line reads %d, want %d, stored before the failure", op, got, record[1])
		}
		a.Heal(2)
		b.Heal(2)
		record = []core.Val{record[0] + 10, record[1] + 10, record[2] + 10, record[3] + 10}
	}
	a.Crash(0)
	b.Crash(0)
	errA, errB := ta.StoreWords(core.OpLStore, 0, record), storeWordByWord(tb, core.OpLStore, 0, record)
	if !errors.Is(errA, ErrCrashed) || !sameErr(errA, errB) {
		t.Errorf("StoreWords from a dead thread: %v, the loop %v", errA, errB)
	}
	if err := ta.LoadWords(0, make([]core.Val, 2)); !errors.Is(err, ErrCrashed) {
		t.Errorf("LoadWords from a dead thread: %v", err)
	}
	if err := sameCluster(a, b); err != nil {
		t.Fatalf("from a dead thread: %v", err)
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
