package pool

import (
	"math"
	"slices"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
)

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
