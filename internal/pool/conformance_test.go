package pool_test

import (
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

// TestRouterSnapshotCostFlat is the scaling gate of a pooled snapshot.
// At one cluster, the store's snapshot is passed through: the same
// objects and bytes after 100 and 20 000 acknowledged writes. At four,
// the objects are the same, and the bytes grow by one copy of each
// sample: every series is joined once, at its exact size.
func TestRouterSnapshotCostFlat(t *testing.T) {
	if small, large := kvtest.SnapshotCosts(t, routerFactory(1), 2); small.Objects != large.Objects || small.Bytes != large.Bytes {
		t.Errorf("1 cluster: Metrics allocates %+v after 100 acked writes but %+v after 20000", small, large)
	}
	small, large := kvtest.SnapshotCosts(t, routerFactory(4), 2)
	if small.Objects != large.Objects {
		t.Errorf("4 clusters: Metrics allocates %v objects after 100 acked writes but %v after 20000", small.Objects, large.Objects)
	}
	// A size class rounds a large allocation up by at most an eighth.
	if perSample := (large.Bytes - small.Bytes) / float64(8*(large.Samples-small.Samples)); perSample > 1.125 {
		t.Errorf("4 clusters: Metrics copies each new sample %.2f times, want once", perSample)
	}
}

// TestRouterScanCostFlat is the scaling gate of a pooled range read: a
// limit-16 scan allocates the same objects at 1, 4 and 8 clusters.
func TestRouterScanCostFlat(t *testing.T) {
	one := kvtest.ScanObjects(t, routerFactory(1), 1<<10)
	for _, clusters := range []int{4, 8} {
		if n := kvtest.ScanObjects(t, routerFactory(clusters), 1<<10); n != one {
			t.Errorf("a limit-16 scan allocates %v objects at 1 cluster but %v at %d", one, n, clusters)
		}
	}
}

// TestRouterShardFullDiagnosable: the structured ShardFullError surfaces
// through the router unchanged.
func TestRouterShardFullDiagnosable(t *testing.T) {
	kvtest.FullToDiagnosable(t, routerFactory(1))
}
