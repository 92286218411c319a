package kv_test

import (
	"testing"

	"cxl0/internal/kv"
	"cxl0/internal/kv/kvtest"
)

// TestStoreConformance runs the reusable kv.DB conformance suite against
// the single-cluster *Store — the same suite pool.Router must pass.
func TestStoreConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T, cfg kv.Config) kv.DB {
		t.Helper()
		st, err := kv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
}

// TestStoreSnapshotCostFlat is the scaling gate of a snapshot: a
// 12-shard store's Metrics allocates the same objects and bytes after 100
// and 20 000 acknowledged writes, as its sample series are views.
func TestStoreSnapshotCostFlat(t *testing.T) {
	small, large := kvtest.SnapshotCosts(t, func(t *testing.T, cfg kv.Config) kv.DB {
		t.Helper()
		st, err := kv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}, 12)
	if small.Objects != large.Objects || small.Bytes != large.Bytes {
		t.Fatalf("Metrics allocates %+v after 100 acked writes but %+v after 20000", small, large)
	}
}

// TestStoreScanCostFlat is the scaling gate of a range read: a limit-16
// scan allocates the same objects at 1 k and 64 k keys per shard.
func TestStoreScanCostFlat(t *testing.T) {
	open := func(t *testing.T, cfg kv.Config) kv.DB {
		t.Helper()
		st, err := kv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if small, large := kvtest.ScanObjects(t, open, 1<<10), kvtest.ScanObjects(t, open, 1<<16); small != large {
		t.Fatalf("a limit-16 scan allocates %v objects at 1 k keys per shard but %v at 64 k", small, large)
	}
}

// TestStoreShardFullDiagnosable checks a full shard fails with the
// structured ShardFullError (shard identity + fill level).
func TestStoreShardFullDiagnosable(t *testing.T) {
	kvtest.FullToDiagnosable(t, func(t *testing.T, cfg kv.Config) kv.DB {
		t.Helper()
		st, err := kv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
}
