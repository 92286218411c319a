package kv_test

import (
	"path/filepath"
	"testing"

	"cxl0/internal/golden"
	"cxl0/internal/kv/kvtest"
)

// TestStoreConformance runs the reusable kv.DB conformance suite against
// the single-cluster *Store — the same suite pool.Router must pass.
func TestStoreConformance(t *testing.T) {
	kvtest.Run(t, kvtest.OpenStore)
}

// TestReplayGolden pins TestStoreConformance's replay cases across
// commits (see kvtest.ReplayCases).
func TestReplayGolden(t *testing.T) {
	golden.Check(t, filepath.Join("testdata", "replay.golden"), golden.Digests(kvtest.ReplayCases(t, "TestStoreConformance", kvtest.OpenStore)))
}

// TestStoreSnapshotCostFlat is the scaling gate of a snapshot: a
// 12-shard store's Metrics allocates the same objects and bytes after 100
// and 20 000 acknowledged writes, as its sample series are views, and
// exactly two objects, the per-shard gauges' one []float64 and one []int.
func TestStoreSnapshotCostFlat(t *testing.T) {
	small, large := kvtest.SnapshotCosts(t, kvtest.OpenStore, 12)
	if small.Objects != large.Objects || small.Bytes != large.Bytes {
		t.Fatalf("Metrics allocates %+v after 100 acked writes but %+v after 20000", small, large)
	}
	if small.Objects != 2 {
		t.Fatalf("Metrics allocates %v objects, want 2", small.Objects)
	}
}

// TestScanAllocations pins what a healthy limited scan allocates: one
// object, the result, and nothing per shard or per candidate, at 2 and 12
// shards. A count, which host noise cannot move; it holds under -race too.
func TestScanAllocations(t *testing.T) {
	for _, shards := range []int{2, 12} {
		if n := kvtest.ScanObjects(t, kvtest.OpenStore, shards, 1<<8); n != 1 {
			t.Errorf("%d shards: a limit-16 scan allocates %v objects, want 1 (the result)", shards, n)
		}
	}
}

// TestStoreScanCostFlat is the scaling gate of a range read: a limit-16
// scan allocates the same objects at 1 k and 64 k keys per shard.
func TestStoreScanCostFlat(t *testing.T) {
	if small, large := kvtest.ScanObjects(t, kvtest.OpenStore, 2, 1<<10), kvtest.ScanObjects(t, kvtest.OpenStore, 2, 1<<16); small != large {
		t.Fatalf("a limit-16 scan allocates %v objects at 1 k keys per shard but %v at 64 k", small, large)
	}
}

// TestStoreShardFullDiagnosable checks a full shard fails with the
// structured ShardFullError (shard identity + fill level).
func TestStoreShardFullDiagnosable(t *testing.T) {
	kvtest.FullToDiagnosable(t, kvtest.OpenStore)
}
