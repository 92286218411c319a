package pool

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
)

// TestScanAllocations pins what a healthy limited pooled scan allocates:
// the result, and nothing per cluster, per shard, per picked key or per
// healthy leg's error check — the merge records its picks in per-store
// scratch and every cursor lives on its shard. A count, which host noise
// cannot move; it holds under -race too.
func TestScanAllocations(t *testing.T) {
	for _, shards := range []int{2, 12} {
		r := openTest(t, Config{Clusters: 4, Store: kv.Config{Shards: shards, Capacity: 512, Strategy: kv.StoreFlush, Seed: 5}})
		for k := core.Val(0); k < 400; k++ {
			if _, err := r.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		lo := core.Val(0)
		allocs := testing.AllocsPerRun(100, func() {
			pairs, err := r.Scan(lo, math.MaxInt64, 16)
			if err != nil || len(pairs) != 16 || pairs[0].Key != lo || pairs[15].Key != lo+15 {
				t.Fatalf("Scan(%d, max, 16) = %v, %v", lo, pairs, err)
			}
			lo = (lo + 7) % 300
		})
		if allocs > 1 {
			t.Errorf("%d shards per cluster: a limit-16 Scan over 4 clusters allocates %v objects, want 1 (the result)", shards, allocs)
		}
	}
}

// TestScanLoadsOnlyWhatItReturns: a limited pooled scan loads the values
// of exactly the pairs it returns. On 4 clusters × 2 shards with no read
// cache, every scan moves the clusters' summed ScannedPairs, and the
// Loads their fabrics count, by the number of pairs it returned — over
// open and narrow ranges, and limits below and above what a range holds.
// Counts, which host noise cannot move.
func TestScanLoadsOnlyWhatItReturns(t *testing.T) {
	r := openTest(t, Config{Clusters: 4, Store: kv.Config{Shards: 2, Capacity: 512, Strategy: kv.StoreFlush, Seed: 5}})
	for k := core.Val(0); k < 300; k++ {
		if _, err := r.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	counts := func() (scanned, loads uint64) {
		for c := 0; c < r.NumClusters(); c++ {
			scanned += r.Cluster(c).Metrics().ScannedPairs
			loads += r.Cluster(c).Cluster().Stats()[core.OpLoad]
		}
		return scanned, loads
	}
	for _, limit := range []int{1, 3, 8, 16, 50} {
		for lo := core.Val(0); lo < 320; lo += 37 {
			for _, hi := range []core.Val{lo + 20, math.MaxInt64} {
				scanned, loads := counts()
				pairs, err := r.Scan(lo, hi, limit)
				if err != nil {
					t.Fatal(err)
				}
				s, l := counts()
				if n := uint64(len(pairs)); s-scanned != n || l-loads != n {
					t.Fatalf("Scan(%d, %d, %d) returned %d pairs but scanned %d and loaded %d", lo, hi, limit, n, s-scanned, l-loads)
				}
			}
		}
	}
}

// TestScanUnderConcurrentWrites: a pooled scan racing writes — each write
// waits for the scan's locks or the scan for the write's — still returns
// at most limit pairs of its range, ascending, each with a value a write
// gave its key. Run it under -race.
func TestScanUnderConcurrentWrites(t *testing.T) {
	r := openTest(t, Config{Clusters: 3, Store: kv.Config{Shards: 2, Capacity: 512, Strategy: kv.StoreFlush, Seed: 9}})
	for k := core.Val(0); k < 200; k += 2 {
		if _, err := r.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := core.Val(1); k < 200; k += 2 {
			if _, err := r.Put(k, k+1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for writing := true; writing; {
		select {
		case <-done:
			writing = false
		default:
		}
		pairs, err := r.Scan(50, 150, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if len(pairs) > 16 || p.Key < 50 || p.Key >= 150 || p.Val != p.Key+1 || (i > 0 && p.Key <= pairs[i-1].Key) {
				t.Fatalf("Scan(50, 150, 16) = %v", pairs)
			}
		}
	}
}

// TestScanIsACut: a pooled scan holds every cluster's store lock at
// once, so what it returns is one cut of the pool. A writer puts odd keys
// in ascending order — consecutive keys hash to different clusters —
// while scans run, limited and not; the odd keys of every scan must be a
// prefix of the writer's order: a scan that returns a key returns every
// key written before it. A scan that listed the clusters' keys one after
// another could miss a key written to a cluster it had already listed and
// return a later one from a cluster it had not. Run it under -race.
func TestScanIsACut(t *testing.T) {
	for _, clusters := range []int{3, 4} {
		r := openTest(t, Config{Clusters: clusters, Store: kv.Config{Shards: 2, Capacity: 1024, Strategy: kv.StoreFlush, PipelineDepth: 1, Seed: 11}})
		const keys = 400
		for k := core.Val(0); k < keys; k += 2 {
			if _, err := r.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := core.Val(1); k < keys; k += 2 {
				if _, err := r.Put(k, k+1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i, writing := 0, true; writing; i++ {
			select {
			case <-done:
				writing = false
			default:
			}
			limit := []int{0, 24, 120}[i%3]
			pairs, err := r.Scan(0, keys, limit)
			if err != nil {
				t.Fatal(err)
			}
			odd := core.Val(1)
			for _, p := range pairs {
				if p.Key%2 == 0 {
					continue
				}
				if p.Key != odd {
					t.Fatalf("%d clusters: Scan(0, %d, %d) returned odd key %d without %d, written before it", clusters, keys, limit, p.Key, odd)
				}
				odd += 2
			}
		}
	}
}

// scanFuzzKeys is the key space of FuzzRouterScan's programs: a few dozen
// keys per cluster, so a limit below 40 both cuts most clusters' key
// lists in the merge and, early in a program or on a narrow range,
// exceeds what is live.
const scanFuzzKeys = 96

// write is one acknowledged record of a shard's log, as the model keeps it.
type write struct{ key, val core.Val }

// runScanProgram interprets prog against a router of 2–4 clusters × 2 or
// 3 shards under ranged commit at pipeline depth 1 or 2 (byte 0 picks all
// three) and holds every scan to a model. Every following 4 bytes (op, a, b, c)
// are one step: a put, a delete, a Sync, a partition or heal of a global
// shard, or — one step in four — Scan(lo, hi, limit) with limit in [0, 40).
//
// The model is each global shard's log, rebuilt from the Acks, and the
// set of shards the program has cut off. What a scan must serve is a
// replay of every shard's log — all of it at depth 1, where a write is
// visible at once, and the prefix below the shard's acked watermark
// (Metrics.PerShardAcked) at depth 2, where reads are gated by it: the
// pairs are the first limit replayed keys in range on reachable shards,
// Missing counts the replayed keys in range on partitioned ones and
// Unavailable names the partitioned shards that hold one.
func runScanProgram(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	clusters, depth, shards := 2+int(prog[0])%3, 1+int(prog[0]>>2)&1, 2+int(prog[0]>>3)&1
	r := openTest(t, Config{Clusters: clusters, Store: kv.Config{
		Shards: shards, Capacity: 1024, Strategy: kv.RangedCommit, Batch: 4, PipelineDepth: depth, Seed: 3, EvictEvery: 5,
	}})
	logs := make([][]write, r.NumShards())
	cut := make([]bool, r.NumShards())
	home := map[core.Val]int{} // the shard a key's writes were acked by
	wrote := func(key, val core.Val, ack kv.Ack, err error) {
		t.Helper()
		if err != nil {
			if sh, known := home[key]; !errors.Is(err, kv.ErrUnavailable) || (known && !cut[sh]) {
				t.Fatalf("write of key %d failed: %v (partitioned: %v)", key, err, cut)
			}
			return
		}
		if cut[ack.Shard] || ack.Seq != len(logs[ack.Shard]) {
			t.Fatalf("write of key %d acked as %+v; shard %d is at slot %d (partitioned: %v)", key, ack, ack.Shard, len(logs[ack.Shard]), cut)
		}
		home[key] = ack.Shard
		logs[ack.Shard] = append(logs[ack.Shard], write{key, val})
	}
	// watermarks returns, per shard, how much of its log reads are served.
	watermarks := func() []int {
		if depth > 1 {
			return r.Metrics().PerShardAcked
		}
		upto := make([]int, len(logs))
		for sh := range upto {
			upto[sh] = len(logs[sh])
		}
		return upto
	}
	// The log capacity bounds a program; the rest of a longer one is unread.
	for i := 1; i+3 < len(prog) && i < 4*900; i += 4 {
		op, a, b, c := prog[i], prog[i+1], prog[i+2], prog[i+3]
		key := core.Val(a) % scanFuzzKeys
		switch op % 32 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13:
			val := 1 + core.Val(b) + core.Val(c)<<8
			ack, err := r.Put(key, val)
			wrote(key, val, ack, err)
		case 14, 15, 16, 17:
			ack, err := r.Delete(key)
			wrote(key, 0, ack, err)
		case 18, 19:
			if err := r.Sync(); err != nil && !errors.Is(err, kv.ErrUnavailable) {
				t.Fatalf("Sync: %v", err)
			}
		case 20:
			sh := int(a) % len(cut)
			r.Partition(sh)
			cut[sh] = true
		case 21, 22, 23:
			// The first partitioned shard from a on, so that most heals heal.
			for j := range cut {
				if sh := (int(a) + j) % len(cut); cut[sh] {
					r.Heal(sh)
					cut[sh] = false
					break
				}
			}
		default:
			lo, hi, limit := key, core.Val(math.MaxInt64), int(c)%40
			if b&1 == 1 {
				hi = lo + 1 + core.Val(b>>1)%scanFuzzKeys
			}
			// An empty-range scan retires every flight that is ready and
			// reads nothing, so the scan below finds none to retire on
			// entry and before is the state it starts from.
			if _, err := r.Scan(lo, lo, 1); err != nil {
				t.Fatalf("Scan(%d,%d,1): %v", lo, lo, err)
			}
			before := watermarks()
			pairs, err := r.Scan(lo, hi, limit)
			// Replay: a key's writes all went to one shard, so the shards'
			// prefixes replay onto one table, in no particular shard order.
			var state [scanFuzzKeys]struct {
				val   core.Val
				shard int
			}
			for sh, upto := range before {
				for _, w := range logs[sh][:upto] {
					state[w.key].val, state[w.key].shard = w.val, sh
				}
			}
			var want []kv.Pair
			withheld := make([]bool, len(cut))
			missing := 0
			for k := lo; k < min(hi, scanFuzzKeys); k++ {
				switch st := state[k]; {
				case st.val == 0:
				case cut[st.shard]:
					withheld[st.shard] = true
					missing++
				case limit <= 0 || len(want) < limit:
					want = append(want, kv.Pair{Key: k, Val: st.val})
				}
			}
			var unavailable []int
			for sh, hit := range withheld {
				if hit {
					unavailable = append(unavailable, sh)
				}
			}
			var wantErr error
			if missing > 0 {
				wantErr = &kv.PartialResultError{Op: "scan", Unavailable: unavailable, Missing: missing}
			}
			var partial *kv.PartialResultError
			if !slices.Equal(pairs, want) || (err == nil) != (wantErr == nil) ||
				(err != nil && (!errors.As(err, &partial) || partial.Error() != wantErr.Error())) {
				t.Fatalf("step %d: Scan(%d,%d,%d) = %v, %v\nthe model says %v, %v (partitioned: %v, watermarks %v)",
					i/4, lo, hi, limit, pairs, err, want, wantErr, cut, before)
			}
		}
	}
}

// FuzzRouterScan holds Router.Scan — one merge over every cluster's
// shard runs, then each cluster's reads of the keys it picked, and on an
// unlimited scan the clusters read one at a time and their runs sorted
// into one — to a replay of the acknowledged writes over arbitrary step
// programs with deletes, partitions and a commit pipeline. Every scan is
// held to the model. The seed corpus is 40 programs of 600 seeded steps.
func FuzzRouterScan(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 1+4*600)
		rng.Read(prog)
		prog[0] = byte(seed)
		f.Add(prog)
	}
	f.Fuzz(runScanProgram)
}
