package pool_test

import (
	"errors"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/pool"
)

// TestRouterFrontFailover pins the pooled front-end failover fan-out:
// CrashFront takes every cluster's front down (the whole pooled surface
// refuses with ErrFrontDown), RecoverFront re-attaches all of them with
// stats in global shard order, and acknowledged writes survive with
// reads resolving old-or-new.
func TestRouterFrontFailover(t *testing.T) {
	const maxKey = 23
	r, err := pool.Open(pool.Config{
		Clusters: 2,
		Store: kv.Config{
			Shards: 2, Capacity: 512, Strategy: kv.RangedCommit, Batch: 3,
			PipelineDepth: 3, Seed: 17,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := core.Val(0); k <= maxKey; k++ {
		if _, err := r.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrites staged and in flight across both clusters.
	for k := core.Val(0); k <= maxKey; k++ {
		if _, err := r.Put(k, 500+k); err != nil {
			t.Fatal(err)
		}
	}

	base := r.Metrics()
	r.CrashFront()
	if !r.FrontDown() {
		t.Fatal("FrontDown() false after CrashFront")
	}
	if _, err := r.Put(0, 9); !errors.Is(err, kv.ErrFrontDown) {
		t.Fatalf("put while pooled fronts down: %v, want ErrFrontDown", err)
	}
	if _, _, err := r.Get(0); !errors.Is(err, kv.ErrFrontDown) {
		t.Fatalf("get while pooled fronts down: %v, want ErrFrontDown", err)
	}
	if err := r.Sync(); !errors.Is(err, kv.ErrFrontDown) {
		t.Fatalf("sync while pooled fronts down: %v, want ErrFrontDown", err)
	}
	if _, err := r.Apply(new(pool.Batch).Put(0, 9).Put(1, 9)); !errors.Is(err, kv.ErrFrontDown) {
		t.Fatalf("apply while pooled fronts down: %v, want ErrFrontDown", err)
	}
	// Op counters are served-only: none of the denials above counts, on
	// any cluster — Batches included.
	if m := r.Metrics(); m.Puts != base.Puts || m.Gets != base.Gets || m.Batches != base.Batches {
		t.Fatalf("front-down denials counted: puts %d→%d gets %d→%d batches %d→%d",
			base.Puts, m.Puts, base.Gets, m.Gets, base.Batches, m.Batches)
	}

	stats, err := r.RecoverFront()
	if err != nil {
		t.Fatalf("recover fronts: %v", err)
	}
	if len(stats) != r.NumShards() {
		t.Fatalf("re-attached %d shards, want %d", len(stats), r.NumShards())
	}
	for i, rs := range stats {
		if rs.Shard != i {
			t.Fatalf("stats[%d].Shard = %d, want global shard order", i, rs.Shard)
		}
	}
	if r.FrontDown() {
		t.Fatal("FrontDown() true after RecoverFront")
	}
	for k := core.Val(0); k <= maxKey; k++ {
		v, ok, err := r.Get(k)
		if err != nil || !ok {
			t.Fatalf("get(%d) after failover: (%v, %v)", k, ok, err)
		}
		if v != 100+k && v != 500+k {
			t.Fatalf("key %d = %d after failover, want acked %d or staged %d", k, v, 100+k, 500+k)
		}
	}
	// Service resumes across the pool.
	for k := core.Val(0); k <= maxKey; k++ {
		if _, err := r.Put(k, 900+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	for k := core.Val(0); k <= maxKey; k++ {
		if v, ok, _ := r.Get(k); !ok || v != 900+k {
			t.Fatalf("key %d = (%d,%v) after resumed writes, want %d", k, v, ok, 900+k)
		}
	}
}
