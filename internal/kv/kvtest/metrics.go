package kvtest

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
)

// series names a Metrics snapshot's four sample series, the parts a
// snapshot may share with the service instead of copying.
var series = []struct {
	name string
	get  func(*kv.Metrics) []float64
}{
	{"RecoveryNS", func(m *kv.Metrics) []float64 { return m.RecoveryNS }},
	{"CompactionNS", func(m *kv.Metrics) []float64 { return m.CompactionNS }},
	{"WriteLatencies", func(m *kv.Metrics) []float64 { return m.WriteLatencies }},
	{"IssueLatencies", func(m *kv.Metrics) []float64 { return m.IssueLatencies }},
}

// testMetricsSnapshotStable pins that a Metrics snapshot is a snapshot:
// its sample series are unchanged by later puts, commits, a compaction, a
// crash+recover sweep and ResetMetrics, and a caller's append to one
// neither is overwritten by the service nor shows in the next snapshot.
func testMetricsSnapshotStable(t *testing.T, f Factory) {
	for _, strat := range []kv.Strategy{kv.GPFEach, kv.GroupCommit, kv.RangedCommit} {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := cfgFor(strat)
			if strat.Batched() {
				cfg.PipelineDepth = 2
			}
			db := f(t, cfg)
			churn := func(lo core.Val) {
				t.Helper()
				for k := lo; k < lo+40; k++ {
					if _, err := db.Put(k%30, k+1); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Sync(); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Compact(); err != nil {
					t.Fatal(err)
				}
				crashRecoverAll(t, db)
			}
			// held are the snapshots taken so far, each with a copy of its
			// series and the series with -1 appended by the caller.
			type held struct {
				m              kv.Metrics
				want, appended [][]float64
			}
			var snaps []held
			take := func() kv.Metrics {
				h := held{m: db.Metrics()}
				for _, s := range series {
					h.want = append(h.want, slices.Clone(s.get(&h.m)))
					h.appended = append(h.appended, append(s.get(&h.m), -1))
				}
				snaps = append(snaps, h)
				return h.m
			}
			check := func(when string) {
				t.Helper()
				for n, h := range snaps {
					for i, s := range series {
						if !slices.Equal(s.get(&h.m), h.want[i]) {
							t.Fatalf("after %s: snapshot %d's %s changed", when, n, s.name)
						}
						if got := h.appended[i][len(h.want[i])]; got != -1 {
							t.Fatalf("after %s: a value appended to snapshot %d's %s was overwritten with %v", when, n, s.name, got)
						}
					}
				}
			}

			churn(0)
			first := take()
			for _, s := range series {
				if len(s.get(&first)) == 0 {
					t.Fatalf("%s is empty: the fixture must record every series", s.name)
				}
			}
			churn(40)
			check("puts, a commit, a compaction and a crash+recover")
			next := take()
			for _, s := range series {
				if len(s.get(&next)) <= len(s.get(&first)) {
					t.Fatalf("%s did not grow past the first snapshot (%d samples)", s.name, len(s.get(&first)))
				}
				if slices.Contains(s.get(&next), -1) {
					t.Fatalf("a value appended to a snapshot's %s shows in the next snapshot", s.name)
				}
			}
			db.ResetMetrics()
			reset := db.Metrics()
			for _, s := range series {
				if n := len(s.get(&reset)); n != 0 {
					t.Fatalf("%s holds %d samples after ResetMetrics", s.name, n)
				}
			}
			// Degraded devices make every later sample differ from the ones
			// before the reset, so a reset that reused the old storage shows.
			for i := 0; i < db.NumShards(); i++ {
				db.Degrade(i, 3)
			}
			churn(80)
			check("ResetMetrics and the same churn on degraded devices")
		})
	}
}

// testMetricsConcurrent takes snapshots while writers run and reads every
// element of each sample series — under -race, a snapshot that shared
// memory the service still writes is a reported race.
func testMetricsConcurrent(t *testing.T, f Factory) {
	cfg := cfgFor(kv.GroupCommit)
	cfg.PipelineDepth = 2
	db := f(t, cfg)
	const writers, puts = 2, 120
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range puts {
				k := core.Val(w*puts + i)
				if _, err := db.Put(k%50, k+1); err != nil {
					errs <- err
					return
				}
				if i%16 == 15 {
					if err := db.Sync(); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		m := db.Metrics()
		if len(m.WriteLatencies) != len(m.IssueLatencies) {
			t.Fatalf("%d ack latencies but %d issue latencies", len(m.WriteLatencies), len(m.IssueLatencies))
		}
		for _, s := range series {
			for _, x := range s.get(&m) {
				if x < 0 {
					t.Fatalf("%s holds a negative duration %v", s.name, x)
				}
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// SnapshotCost is what one Metrics call allocates, and the samples the
// snapshot holds across its four series.
type SnapshotCost struct {
	Objects, Bytes float64
	Samples        int
}

// SnapshotCosts measures one Metrics call on a fresh DB of the given
// shards per cluster after 100 and after 20 000 acknowledged writes, for
// the scaling gates of a snapshot: its cost follows the shard and cluster
// counts, never the sample history. Before either measurement every
// shard has been compacted and crashed+recovered, so every sample series
// of every cluster is non-empty at both. Exposed separately from Run
// because the topology is the point: kv holds a 12-shard Store to it,
// pool a Router at 1 and 4 clusters.
func SnapshotCosts(t *testing.T, f Factory, shards int) (small, large SnapshotCost) {
	t.Helper()
	db := f(t, kv.Config{Shards: shards, Strategy: kv.GroupCommit, CompactAtFill: 0.5, Seed: 3})
	written := 0
	write := func(acked int) {
		t.Helper()
		for ; written < acked; written++ {
			if _, err := db.Put(core.Val(written%1000), core.Val(written+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		if n := len(db.Metrics().WriteLatencies); n != acked {
			t.Fatalf("%d ack latencies, want %d", n, acked)
		}
	}
	const runs = 20
	cost := func() SnapshotCost {
		c := SnapshotCost{Objects: testing.AllocsPerRun(runs, func() { db.Metrics() })}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			db.Metrics()
		}
		runtime.ReadMemStats(&after)
		c.Bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		m := db.Metrics()
		for _, s := range series {
			c.Samples += len(s.get(&m))
		}
		return c
	}
	write(64)
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	crashRecoverAll(t, db)
	write(100)
	small = cost()
	write(20000)
	return small, cost()
}

// ScanObjects returns the objects one limit-16 scan allocates, averaged
// over scans from starts spread across a fresh DB of shards shards per
// cluster preloaded with keysPerShard keys per shard (a dense keyspace),
// for the scaling gates of a range read: a scan merges the shards'
// ordered runs and stops at the limit, so its allocations follow neither
// the keys per shard nor the shard or cluster count. Every scan must come
// back full, from its start. Exposed separately from Run because the size
// is the point: kv holds a Store of 2 and 12 shards to one object, the
// result, and to the same count at 1 k and 64 k keys per shard; pool holds
// a Router of 4 clusters of 2 and 12 shards to one object, and to the same
// count at 1, 4 and 8 clusters.
func ScanObjects(t *testing.T, f Factory, shards, keysPerShard int) float64 {
	t.Helper()
	const limit = 16
	// Keys hash to shards, so a shard's share is only near its average.
	// MStoreEach is the cheapest strategy to preload; a scan is the same
	// under every strategy.
	db := f(t, kv.Config{Shards: shards, Capacity: 2 * keysPerShard, Strategy: kv.MStoreEach, Seed: 1})
	keys := keysPerShard * db.NumShards()
	for k := 0; k < keys; k++ {
		if _, err := db.Put(core.Val(k), core.Val(k+1)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(100, func() {
		lo := core.Val(i * 7919 % (keys - limit))
		i++
		pairs, err := db.Scan(lo, math.MaxInt64, limit)
		if err != nil || len(pairs) != limit || pairs[0].Key != lo || pairs[limit-1].Key != lo+limit-1 {
			t.Fatalf("scan from %d: %v, %v; want the %d keys from it of a dense keyspace", lo, pairs, err, limit)
		}
	})
}
