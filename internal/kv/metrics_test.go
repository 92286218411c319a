package kv

import (
	"reflect"
	"slices"
	"testing"

	"cxl0/internal/core"
)

// TestCountersDeclaredOnce holds kv.Counters to being the one declaration
// of a service counter: every field is a uint64 under its own JSON key
// (the key /metrics serves), Add sums every field — so a pooled snapshot
// cannot silently drop a counter whose Add line was forgotten — and
// ResetMetrics leaves none behind.
func TestCountersDeclaredOnce(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	var primes []uint64
	for c := uint64(2); len(primes) < 2*typ.NumField(); c++ {
		if !slices.ContainsFunc(primes, func(p uint64) bool { return c%p == 0 }) {
			primes = append(primes, c)
		}
	}
	var a, b Counters
	tags := map[string]string{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("Counters.%s is a %s; a counter is a cumulative, summable uint64 (gauges and series belong on Metrics)", f.Name, f.Type)
			continue
		}
		tag := f.Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Errorf("Counters.%s has no JSON key: /metrics serves the struct by its tags", f.Name)
		} else if prev, dup := tags[tag]; dup {
			t.Errorf("Counters.%s and Counters.%s share the JSON key %q", prev, f.Name, tag)
		}
		tags[tag] = f.Name
		reflect.ValueOf(&a).Elem().Field(i).SetUint(primes[2*i])
		reflect.ValueOf(&b).Elem().Field(i).SetUint(primes[2*i+1])
	}
	sum := a
	sum.Add(b)
	for i := 0; i < typ.NumField(); i++ {
		if got, want := reflect.ValueOf(sum).Field(i).Uint(), primes[2*i]+primes[2*i+1]; got != want {
			t.Errorf("Add: %s = %d, want %d + %d — every field needs its line in Counters.Add",
				typ.Field(i).Name, got, primes[2*i], primes[2*i+1])
		}
	}

	// Traffic that moves counters on every path that has one — writes,
	// reads through the cache, a batch, a scan, commits through the
	// pipeline, a shard crash, a front-end crash under an open batch, a
	// migration, a compaction.
	st := openTest(t, Config{Shards: 2, Strategy: GroupCommit, Batch: 4, PipelineDepth: 2, Capacity: 256, Seed: 9,
		ReadCache: 8, Prefetch: true})
	for k := core.Val(0); k < 40; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Get(k / 2); err != nil {
			t.Fatal(err)
		}
	}
	var batch Batch
	batch.Put(100, 1)
	batch.Delete(3)
	if _, err := st.Apply(&batch); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MultiGet([]core.Val{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Scan(0, 20, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(200, 1); err != nil {
		t.Fatal(err)
	}
	st.Crash(st.ShardOf(200))
	if _, err := st.Recover(st.ShardOf(200)); err != nil {
		t.Fatal(err)
	}
	// A front-end crash takes the open batch staged in its cache with it.
	if _, err := st.Put(201, 1); err != nil {
		t.Fatal(err)
	}
	st.CrashFront()
	if _, err := st.RecoverFront(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MigrateBucket(st.BucketOf(5), 1-st.ShardOf(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	moved := st.Metrics().Counters
	for i := 0; i < typ.NumField(); i++ {
		// A single store never over-fetches a scan; the router owns that one.
		if name := typ.Field(i).Name; reflect.ValueOf(moved).Field(i).Uint() == 0 && name != "ScanDiscardedPairs" {
			t.Errorf("the traffic above never moved %s; extend it so the reset below is held to every counter", name)
		}
	}
	st.ResetMetrics()
	if got := st.Metrics().Counters; got != (Counters{}) {
		t.Fatalf("counters after ResetMetrics = %+v, want all zero", got)
	}
}
