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

// write is one acknowledged record of a shard's log, as the model keeps it.
type write struct{ key, val core.Val }

// runScanProgram interprets prog against a router of 2–4 clusters × 2 or
// 3 shards under ranged commit at pipeline depth 1 or 2 (byte 0 picks all
// three) and holds every read to a model. Every following 4 bytes (op,
// a, b, c) are one step: a put, a delete, a Sync, a partition or heal of
// a global shard, an Apply of up to 6 puts and deletes, a MultiGet of up
// to 8 keys, or Scan(lo, hi, limit) with limit in [0, 40).
//
// The model is each global shard's log, rebuilt from the Acks (an Apply's
// records in the order its legs write them: cluster by cluster, each
// cluster's ops in batch order), and the set of shards the program has
// cut off. What a read must serve is a replay of every shard's log — all
// of it at depth 1, where a write is visible at once, and the prefix
// below the shard's acked watermark (Metrics.PerShardAcked) at depth 2,
// where reads are gated by it: a scan's pairs are the first limit
// replayed keys in range on reachable shards, Missing counts the replayed
// keys in range on partitioned ones and Unavailable names the partitioned
// shards that hold one. A MultiGet returns each key's replayed value, or
// not found, at a watermark between the call's start and end (its reads
// move the clock, so a flight may retire between two keys); a key routed
// to a partitioned shard is a placeholder counted in Missing, its shard
// in Unavailable. An Apply acknowledges its records durable, or fails on
// the first op routed to a partitioned shard, the records before it
// written.
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
	// shardOf is the global shard a key routes to (no bucket moves here).
	shardOf := func(k core.Val) int {
		c := r.ClusterOf(k)
		return r.globalShard(c, r.Cluster(c).ShardOf(k))
	}
	// replayed returns key k's value in the first upto records of its
	// shard's log (0 if none, or deleted).
	replayed := func(k core.Val, upto int) core.Val {
		val := core.Val(0)
		for _, w := range logs[shardOf(k)][:upto] {
			if w.key == k {
				val = w.val
			}
		}
		return val
	}
	// The log capacity bounds a program; the rest of a longer one is unread.
	for i := 1; i+3 < len(prog) && i < 4*900; i += 4 {
		op, a, b, c := prog[i], prog[i+1], prog[i+2], prog[i+3]
		key := core.Val(a) % scanFuzzKeys
		switch op % 32 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12:
			val := 1 + core.Val(b) + core.Val(c)<<8
			ack, err := r.Put(key, val)
			wrote(key, val, ack, err)
		case 13, 14, 15:
			ack, err := r.Delete(key)
			wrote(key, 0, ack, err)
		case 16, 17:
			if err := r.Sync(); err != nil && !errors.Is(err, kv.ErrUnavailable) {
				t.Fatalf("Sync: %v", err)
			}
		case 18:
			sh := int(a) % len(cut)
			r.Partition(sh)
			cut[sh] = true
		case 22, 23:
			// Op j puts key a + j*b (mod the key space), or deletes it
			// when bit j of c is set.
			batch := new(Batch)
			var ops []write
			for j := range 1 + int(c>>5)%6 {
				k := (key + core.Val(j)*core.Val(b)) % scanFuzzKeys
				val := 1 + core.Val(b) + core.Val(j)<<8
				if c>>j&1 == 1 {
					batch.Delete(k)
					val = 0
				} else {
					batch.Put(k, val)
				}
				ops = append(ops, write{k, val})
			}
			ack, err := r.Apply(batch)
			// The model's legs: cluster by cluster, ops in batch order.
			var wantErr error
			for cl := 0; cl < r.NumClusters() && wantErr == nil; cl++ {
				for _, w := range ops {
					if r.ClusterOf(w.key) != cl {
						continue
					}
					sh := shardOf(w.key)
					if cut[sh] {
						wantErr = kv.ErrUnavailable
						break
					}
					home[w.key] = sh
					logs[sh] = append(logs[sh], w)
				}
			}
			last := shardOf(ops[len(ops)-1].key)
			if wantErr != nil {
				if !errors.Is(err, wantErr) {
					t.Fatalf("step %d: Apply(%v) = %+v, %v; want ErrUnavailable (partitioned: %v)", i/4, ops, ack, err, cut)
				}
			} else if err != nil || !ack.Durable || ack.Shard != last || ack.Seq != len(logs[last])-1 {
				t.Fatalf("step %d: Apply(%v) = %+v, %v; want shard %d slot %d durable (partitioned: %v)",
					i/4, ops, ack, err, last, len(logs[last])-1, cut)
			}
		case 24, 25:
			var keys []core.Val
			for j := range 1 + int(c)%8 {
				keys = append(keys, (key+core.Val(j)*core.Val(b))%scanFuzzKeys)
			}
			if _, err := r.Scan(0, 0, 1); err != nil {
				t.Fatalf("Scan(0,0,1): %v", err)
			}
			before := watermarks()
			res, err := r.MultiGet(keys)
			after := watermarks()
			var unavailable []int
			missing := 0
			for j, k := range keys {
				sh := shardOf(k)
				if cut[sh] {
					if !slices.Contains(unavailable, sh) {
						unavailable = append(unavailable, sh)
					}
					missing++
					if j < len(res) && res[j] != (kv.Lookup{Key: k}) {
						t.Fatalf("step %d: MultiGet(%v)[%d] = %+v; want a placeholder, shard %d is partitioned", i/4, keys, j, res[j], sh)
					}
					continue
				}
				ok := false
				for upto := before[sh]; upto <= after[sh] && !ok && j < len(res); upto++ {
					val := replayed(k, upto)
					ok = res[j] == kv.Lookup{Key: k, Val: val, Found: val != 0}
				}
				if !ok {
					t.Fatalf("step %d: MultiGet(%v) = %+v, %v; key %d's replay at shard %d's watermarks %d..%d is %d..%d",
						i/4, keys, res, err, k, sh, before[sh], after[sh], replayed(k, before[sh]), replayed(k, after[sh]))
				}
			}
			slices.Sort(unavailable)
			var wantErr error
			if missing > 0 {
				wantErr = &kv.PartialResultError{Op: "multiget", Unavailable: unavailable, Missing: missing}
			}
			var partial *kv.PartialResultError
			if len(res) != len(keys) || (err == nil) != (wantErr == nil) ||
				(err != nil && (!errors.As(err, &partial) || partial.Error() != wantErr.Error())) {
				t.Fatalf("step %d: MultiGet(%v) = %+v, %v; the model says %v (partitioned: %v)", i/4, keys, res, err, wantErr, cut)
			}
		case 19, 20, 21:
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

// FuzzRouterScan holds the pooled reads and batch writes — Router.Scan
// (one merge over every cluster's shard runs, limited or not, then each
// cluster's reads of the keys it picked), MultiGet and Apply — to a
// replay of the acknowledged writes over arbitrary step programs with
// deletes, partitions and a commit pipeline. Every read and every batch
// is held to the model. The seed corpus is 40 programs of 600 seeded
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
