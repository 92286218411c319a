package pool_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"cxl0/internal/golden"
	"cxl0/internal/kv"
	"cxl0/internal/kv/kvtest"
	"cxl0/internal/pool"
)

func routerFactory(clusters int) kvtest.Factory {
	return func(t *testing.T, cfg kv.Config) kv.DB {
		t.Helper()
		r, err := pool.Open(pool.Config{Clusters: clusters, Store: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// FuzzDB holds a bare kv.Store and a Router to kvspec over arbitrary
// programs (kvtest.Program). The first byte picks the DB (bits 0–1: a
// Store, or a Router of 2, 3 or 4 clusters), 2 or 3 shards (bit 2),
// pipeline depth 1 or 2 (bit 3), the read cache off or 32 entries with
// prefetch (bit 4) and the strategy (bits 5–7, modulo the six). The seed
// corpus is one program of kvtest.ProgramSteps seeded steps per (DB,
// depth, cache, strategy) cell, its shard count the seeded byte's.
func FuzzDB(f *testing.F) {
	for cell := range 96 {
		prog := make([]byte, 1+4*kvtest.ProgramSteps)
		rand.New(rand.NewSource(int64(cell))).Read(prog)
		prog[0] = prog[0]&4 | byte(cell&3|cell>>2<<3)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		n, db := int(prog[0]), kvtest.OpenStore
		if n&3 > 0 {
			db = routerFactory(1 + n&3)
		}
		cfg := kv.Config{Shards: 2 + n>>2&1, Capacity: 6 * kvtest.ProgramSteps, Strategy: kv.Strategies[n>>5%6], Batch: 4,
			PipelineDepth: 1 + n>>3&1, Seed: 3, EvictEvery: 5}
		if n>>4&1 == 1 {
			cfg.ReadCache, cfg.Prefetch = 32, true
		}
		kvtest.Program(t, db, cfg, prog[1:])
	})
}

// TestRouterConformance runs the kv.DB conformance suite against a
// 2-cluster Router: the pooled service must honor the exact contract a
// single store does.
func TestRouterConformance(t *testing.T) {
	kvtest.Run(t, routerFactory(2))
}

// TestRouterConformanceThreeClusters re-runs the suite at 3 clusters,
// where fan-out and merge paths split three ways.
func TestRouterConformanceThreeClusters(t *testing.T) {
	kvtest.Run(t, routerFactory(3))
}

// TestReplayGolden pins both conformance tests' replay cases across
// commits (see kvtest.ReplayCases).
func TestReplayGolden(t *testing.T) {
	cases := kvtest.ReplayCases(t, "TestRouterConformance", routerFactory(2))
	cases = append(cases, kvtest.ReplayCases(t, "TestRouterConformanceThreeClusters", routerFactory(3))...)
	golden.Check(t, filepath.Join("testdata", "replay.golden"), golden.Digests(cases))
}

// TestRouterSnapshotCostFlat is the scaling gate of a pooled snapshot,
// one kv.MetricsOf over the clusters. At one cluster, it is the store's:
// the same two objects and bytes after 100 and 20 000 acknowledged
// writes. At four and eight, it allocates the same objects after 100 and
// 20 000 writes and at either cluster count, at most three (the gauges'
// two and the one buffer every sample series is copied into), and the
// bytes grow by one copy of each sample.
func TestRouterSnapshotCostFlat(t *testing.T) {
	small, large := kvtest.SnapshotCosts(t, routerFactory(1), 2)
	if small.Objects != large.Objects || small.Bytes != large.Bytes {
		t.Errorf("1 cluster: Metrics allocates %+v after 100 acked writes but %+v after 20000", small, large)
	}
	if small.Objects != 2 {
		t.Errorf("1 cluster: Metrics allocates %v objects, want 2", small.Objects)
	}
	var objects []float64
	for _, clusters := range []int{4, 8} {
		small, large := kvtest.SnapshotCosts(t, routerFactory(clusters), 2)
		if small.Objects != large.Objects || small.Objects > 3 {
			t.Errorf("%d clusters: Metrics allocates %v objects after 100 acked writes and %v after 20000, want the same, at most 3",
				clusters, small.Objects, large.Objects)
		}
		objects = append(objects, small.Objects)
		// A size class rounds a large allocation up by at most an eighth.
		if perSample := (large.Bytes - small.Bytes) / float64(8*(large.Samples-small.Samples)); perSample > 1.125 {
			t.Errorf("%d clusters: Metrics copies each new sample %.2f times, want once", clusters, perSample)
		}
	}
	if objects[0] != objects[1] {
		t.Errorf("Metrics allocates %v objects at 4 clusters but %v at 8", objects[0], objects[1])
	}
}

// TestScanAllocations pins what a healthy limited pooled scan allocates:
// one object, the result, and nothing per cluster, per shard, per picked
// key or per healthy leg's error check, at 4 clusters of 2 and 12 shards
// — the merge records its picks in per-store scratch and every cursor
// lives on its shard. A count, which host noise cannot move; it holds
// under -race too.
func TestScanAllocations(t *testing.T) {
	for _, shards := range []int{2, 12} {
		if n := kvtest.ScanObjects(t, routerFactory(4), shards, 1<<8); n != 1 {
			t.Errorf("%d shards per cluster: a limit-16 scan over 4 clusters allocates %v objects, want 1 (the result)", shards, n)
		}
	}
}

// TestRouterScanCostFlat is the scaling gate of a pooled range read: a
// limit-16 scan allocates the same objects at 1, 4 and 8 clusters.
func TestRouterScanCostFlat(t *testing.T) {
	one := kvtest.ScanObjects(t, routerFactory(1), 2, 1<<10)
	for _, clusters := range []int{4, 8} {
		if n := kvtest.ScanObjects(t, routerFactory(clusters), 2, 1<<10); n != one {
			t.Errorf("a limit-16 scan allocates %v objects at 1 cluster but %v at %d", one, n, clusters)
		}
	}
}

// TestRouterShardFullDiagnosable: the structured ShardFullError surfaces
// through the router unchanged.
func TestRouterShardFullDiagnosable(t *testing.T) {
	kvtest.FullToDiagnosable(t, routerFactory(1))
}
