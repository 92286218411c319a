package pool

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/kv/kvspec"
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

// TestApplyIsACut holds a pooled Apply to the cut the calls over the
// clusters share: a writer applies one value to one key on every cluster,
// batch after batch, while pooled Scans and MultiGets run; every read must
// see the whole batch or none of it — one value on every key. An Apply
// that committed cluster by cluster, each under its own store's lock
// alone, would show a read the new value on the clusters already
// committed and the old one on the rest. Run it under -race.
func TestApplyIsACut(t *testing.T) {
	for _, clusters := range []int{3, 4} {
		r := openTest(t, Config{Clusters: clusters, Store: kv.Config{Shards: 2, Capacity: 1024, Strategy: kv.StoreFlush, PipelineDepth: 1, Seed: 11}})
		keys := make([]core.Val, clusters)
		for c := range keys {
			keys[c] = keyOnCluster(t, r, c)
		}
		hi := slices.Max(keys) + 1
		apply := func(v core.Val) error {
			b := new(Batch)
			for _, k := range keys {
				b.Put(k, v)
			}
			_, err := r.Apply(b)
			return err
		}
		if err := apply(1); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for v := core.Val(2); v <= 300; v++ {
				if err := apply(v); err != nil {
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
			var vals []core.Val
			if i%2 == 0 {
				pairs, err := r.Scan(0, hi, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pairs {
					vals = append(vals, p.Val)
				}
			} else {
				res, err := r.MultiGet(keys)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range res {
					vals = append(vals, l.Val)
				}
			}
			if len(vals) != clusters || slices.Min(vals) != slices.Max(vals) {
				t.Fatalf("%d clusters: read %d saw values %v of the batches over keys %v, want one value on every key", clusters, i, vals, keys)
			}
		}
	}
}

// scanFuzzKeys is the key space of FuzzRouterScan's programs: a few dozen
// keys per cluster, so a limit below 40 both cuts most clusters' key
// lists in the merge and, early in a program or on a narrow range,
// exceeds what is live.
const scanFuzzKeys = 96

// runScanProgram interprets prog against a router of 2–4 clusters × 2 or
// 3 shards under ranged commit at pipeline depth 1 or 2 (byte 0 picks all
// three) and holds every step to kvspec, routed as the router routes.
// Every following 4 bytes (op, a, b, c) are one step: a put, a delete, a
// Sync, a partition or heal of a global shard, an Apply of up to 6 puts
// and deletes, a MultiGet of up to 8 keys, or Scan(lo, hi, limit) with
// limit in [0, 40). The spec takes each write as its Ack names it and
// each shard's watermark from Metrics.PerShardAcked after every step; a
// read is held to the spec at the watermarks it leaves, a MultiGet's
// keys to any watermark between the call's start and end (its reads
// move the clock, so a flight may retire between two keys).
func runScanProgram(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	clusters, depth, shards := 2+int(prog[0])%3, 1+int(prog[0]>>2)&1, 2+int(prog[0]>>3)&1
	r := openTest(t, Config{Clusters: clusters, Store: kv.Config{
		Shards: shards, Capacity: 1024, Strategy: kv.RangedCommit, Batch: 4, PipelineDepth: depth, Seed: 3, EvictEvery: 5,
	}})
	// shardOf is the global shard a key routes to (no bucket moves here).
	shardOf := func(k core.Val) int {
		c := r.ClusterOf(k)
		return r.globalShard(c, r.Cluster(c).ShardOf(k))
	}
	spec := kvspec.New(clusters, shards, depth > 1, shardOf)
	adopt := func(step int) {
		if err := spec.Ack(r.Metrics().PerShardAcked); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// withheld holds a read's error to what the spec says it withheld; a
	// partial result unwraps to kv.ErrUnavailable.
	withheld := func(step int, op string, p kvspec.Partial, err error) {
		var partial *kv.PartialResultError
		if (err == nil) != (p.Missing == 0) || (err != nil && (!errors.As(err, &partial) || !errors.Is(err, kv.ErrUnavailable) ||
			partial.Op != op || partial.Missing != p.Missing || !slices.Equal(partial.Unavailable, p.Unavailable))) {
			t.Fatalf("step %d: %s failed with %v; the spec withholds %+v (partitioned: %v)", step, op, err, p, spec.Part)
		}
	}
	// The log capacity bounds a program; the rest of a longer one is unread.
	for i := 1; i+3 < len(prog) && i < 4*900; i += 4 {
		op, a, b, c := prog[i], prog[i+1], prog[i+2], prog[i+3]
		step, key := i/4, core.Val(a)%scanFuzzKeys
		switch op % 32 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15:
			val := 1 + core.Val(b) + core.Val(c)<<8
			var ack kv.Ack
			var err error
			if op%32 < 13 {
				ack, err = r.Put(key, val)
			} else {
				val = 0
				ack, err = r.Delete(key)
			}
			sh := shardOf(key)
			if spec.Part[sh] {
				if !errors.Is(err, kv.ErrUnavailable) {
					t.Fatalf("step %d: write of key %d to partitioned shard %d: %+v, %v", step, key, sh, ack, err)
				}
			} else if spec.Shards[sh].Write(key, val); err != nil || ack.Shard != sh || ack.Seq != len(spec.Shards[sh].Log)-1 {
				t.Fatalf("step %d: write of key %d = %+v, %v; want shard %d slot %d", step, key, ack, err, sh, len(spec.Shards[sh].Log)-1)
			}
		case 16, 17:
			if err := r.Sync(); err != nil && !errors.Is(err, kv.ErrUnavailable) {
				t.Fatalf("Sync: %v", err)
			}
		case 18:
			sh := int(a) % len(spec.Part)
			r.Partition(sh)
			spec.Part[sh] = true
		case 19, 20, 21:
			// The first partitioned shard from a on, so that most heals heal.
			for j := range spec.Part {
				if sh := (int(a) + j) % len(spec.Part); spec.Part[sh] {
					r.Heal(sh)
					spec.Part[sh] = false
					break
				}
			}
		case 22, 23:
			// Op j puts key a + j*b (mod the key space), or deletes it
			// when bit j of c is set.
			batch := new(Batch)
			var ops []kvspec.Rec
			for j := range 1 + int(c>>5)%6 {
				k := (key + core.Val(j)*core.Val(b)) % scanFuzzKeys
				val := 1 + core.Val(b) + core.Val(j)<<8
				if c>>j&1 == 1 {
					batch.Delete(k)
					val = 0
				} else {
					batch.Put(k, val)
				}
				ops = append(ops, kvspec.Rec{Key: k, Val: val})
			}
			ack, err := r.Apply(batch)
			last := shardOf(ops[len(ops)-1].Key)
			if !spec.Apply(ops) {
				if !errors.Is(err, kv.ErrUnavailable) {
					t.Fatalf("step %d: Apply(%v) = %+v, %v; want ErrUnavailable (partitioned: %v)", step, ops, ack, err, spec.Part)
				}
			} else if err != nil || !ack.Durable || ack.Shard != last || ack.Seq != len(spec.Shards[last].Log)-1 {
				t.Fatalf("step %d: Apply(%v) = %+v, %v; want shard %d slot %d durable (partitioned: %v)",
					step, ops, ack, err, last, len(spec.Shards[last].Log)-1, spec.Part)
			}
		case 24, 25:
			var keys []core.Val
			for j := range 1 + int(c)%8 {
				keys = append(keys, (key+core.Val(j)*core.Val(b))%scanFuzzKeys)
			}
			// An empty-range scan retires every flight that is ready, so
			// the MultiGet's window opens where it starts.
			if _, err := r.Scan(0, 0, 1); err != nil {
				t.Fatalf("Scan(0,0,1): %v", err)
			}
			adopt(step)
			res, err := r.MultiGet(keys)
			got := make([]kvspec.Lookup, len(res))
			for j, l := range res {
				got[j] = kvspec.Lookup(l)
			}
			p, serr := spec.MultiGet(keys, got, r.Metrics().PerShardAcked)
			if serr != nil {
				t.Fatalf("step %d: %v (%v; partitioned: %v)", step, serr, err, spec.Part)
			}
			withheld(step, "multiget", p, err)
		default:
			lo, hi, limit := key, core.Val(math.MaxInt64), int(c)%40
			if b&1 == 1 {
				hi = lo + 1 + core.Val(b>>1)%scanFuzzKeys
			}
			pairs, err := r.Scan(lo, hi, limit)
			adopt(step)
			want, p := spec.Scan(lo, hi, limit)
			if !slices.EqualFunc(pairs, want, func(a kv.Pair, b kvspec.Pair) bool { return kvspec.Pair(a) == b }) {
				t.Fatalf("step %d: Scan(%d,%d,%d) = %v, the spec's %v (partitioned: %v)", step, lo, hi, limit, pairs, want, spec.Part)
			}
			withheld(step, "scan", p, err)
		}
		adopt(step)
	}
}

// FuzzRouterScan holds the pooled reads and batch writes — Router.Scan
// (one merge over every cluster's shard runs, limited or not, then each
// cluster's reads of the keys it picked), MultiGet and Apply — to kvspec
// over arbitrary step programs with deletes, partitions and a commit
// pipeline. Every write, read and batch is held to the spec. The seed corpus is 40 programs of 600 seeded
// steps.
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
