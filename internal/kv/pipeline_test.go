package kv

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cxl0/internal/core"
)

// Tests for the asynchronous commit pipeline (pipeline.go) and the
// front-end failover path (failover.go): crashes with the pipeline at
// full depth, partitions while flushes are in flight, and front crash +
// re-attachment replay. The pipelined crash property, where a read sees
// only the acknowledged prefix, is a row of property_test.go.

// flightsLen reads a shard's in-flight flush count under the store
// lock. Tests peek at pipeline internals between operations, and the
// guardedby discipline applies to them like any other caller.
func flightsLen(st *Store, shard int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.shards[shard].flights)
}

// pumpToDepth overwrites keys round-robin on a 1-shard store until the
// pipeline holds exactly want in-flight flushes. Fails the test if depth
// never stacks.
func pumpToDepth(t *testing.T, r *specRun, want int) {
	t.Helper()
	for i := 0; flightsLen(r.st, 0) < want; i++ {
		if i > 300 {
			t.Fatalf("pipeline never reached depth %d (at %d after %d writes)", want, flightsLen(r.st, 0), i)
		}
		if err := r.write(core.Val(i)%r.keys, core.Val(2000+i)); err != nil {
			t.Fatalf("pump: %v", err)
		}
	}
}

// TestPipelineCrashAtDepth crashes the shard with the pipeline at full
// depth K and pins the recovery floor: every in-flight flush was
// performed at issue, so the salvage must recover at least through the
// newest flight's limit — strictly more than the acked watermark — and
// the shard must read as the spec's log cut there.
func TestPipelineCrashAtDepth(t *testing.T) {
	const keys = 6
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range []Strategy{GroupCommit, RangedCommit} {
			for _, depth := range []int{2, 4} {
				t.Run(fmt.Sprintf("%v/%v/K%d", variant, strat, depth), func(t *testing.T) {
					st := openTest(t, Config{
						Shards: 1, Capacity: 1024, Strategy: strat, Batch: 3,
						Variant: variant, PipelineDepth: depth,
						Seed: int64(strat)*100 + int64(variant)*10 + int64(depth),
					})
					r := newSpecRun(st, keys)
					for k := core.Val(0); k < keys; k++ {
						if err := r.write(k, 100+k); err != nil {
							t.Fatal(err)
						}
					}
					if err := r.sync(); err != nil {
						t.Fatal(err)
					}
					pumpToDepth(t, r, depth)

					acked := r.spec[0].Acked
					st.mu.Lock()
					sh := st.shards[0]
					flushedThrough := sh.flights[len(sh.flights)-1].limit
					st.mu.Unlock()
					if flushedThrough <= acked {
						t.Fatalf("no unretired flushed records: acked %d, flushed through %d", acked, flushedThrough)
					}
					st.Crash(0)
					stats, err := st.Recover(0)
					if err != nil {
						t.Fatal(err)
					}
					if stats.Recovered < flushedThrough {
						t.Fatalf("recovered %d records; %d were flushed in flight (acked %d) — an issued flush is durable",
							stats.Recovered, flushedThrough, acked)
					}
					if err := r.recovered(stats); err != nil {
						t.Fatal(err)
					}
					// The service keeps pipelining afterwards.
					pumpToDepth(t, r, 2)
					if err := r.final(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestFrontFailover pins the front-end failover contract: a front crash
// takes the whole service surface down with ErrFrontDown (data plane and
// control plane), RecoverFront re-attaches every healthy shard by
// replaying its durable log, after which each shard reads as the spec's
// log cut there, and the service serves again afterwards.
func TestFrontFailover(t *testing.T) {
	const maxKey = 11
	for _, strat := range []Strategy{GroupCommit, RangedCommit} {
		for _, depth := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/K%d", strat, depth), func(t *testing.T) {
				st := openTest(t, Config{
					Shards: 2, Capacity: 512, Strategy: strat, Batch: 3,
					PipelineDepth: depth, Seed: int64(strat)*10 + int64(depth),
				})
				r := newSpecRun(st, maxKey+1)
				writeAll := func(base core.Val) {
					for k := range r.keys {
						if err := r.write(k, base+k); err != nil {
							t.Fatal(err)
						}
					}
				}
				writeAll(100)
				if err := r.sync(); err != nil {
					t.Fatal(err)
				}
				// Overwrites left staged and in flight when the front dies.
				writeAll(500)

				st.CrashFront()
				if !st.FrontDown() {
					t.Fatal("FrontDown() false after CrashFront")
				}
				st.CrashFront() // idempotent
				wantDown := func(what string, err error) {
					t.Helper()
					if !errors.Is(err, ErrFrontDown) {
						t.Fatalf("%s while front down: %v, want ErrFrontDown", what, err)
					}
				}
				_, err := st.Put(0, 9)
				wantDown("put", err)
				_, _, err = st.Get(0)
				wantDown("get", err)
				_, err = st.MultiGet([]core.Val{0, 1})
				wantDown("multiget", err)
				_, err = st.Scan(0, maxKey, 0)
				wantDown("scan", err)
				wantDown("sync", st.Sync())
				_, err = st.Compact()
				wantDown("compact", err)
				_, err = st.CompactShard(0)
				wantDown("compactshard", err)
				_, err = st.Rebalance()
				wantDown("rebalance", err)
				_, err = st.Recover(0)
				wantDown("recover", err)
				_, err = st.MigrateBucket(0, 1)
				wantDown("migrate", err)

				stats, err := st.RecoverFront()
				if err != nil {
					t.Fatalf("recover front: %v", err)
				}
				if len(stats) != 2 {
					t.Fatalf("re-attached %d shards, want 2", len(stats))
				}
				if st.FrontDown() {
					t.Fatal("FrontDown() true after RecoverFront")
				}
				if again, err := st.RecoverFront(); again != nil || err != nil {
					t.Fatalf("second RecoverFront = (%v, %v), want no-op", again, err)
				}
				for _, rs := range stats {
					if err := r.recovered(rs); err != nil {
						t.Fatal(err)
					}
				}
				// Service resumes: write, commit, read back.
				writeAll(900)
				if err := r.final(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	// Re-attachment must read every shard's medium: a partitioned shard
	// refuses the whole RecoverFront until healed.
	t.Run("PartitionedRefusal", func(t *testing.T) {
		st, err := Open(Config{
			Shards: 2, Capacity: 512, Strategy: RangedCommit, Batch: 3,
			PipelineDepth: 2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := core.Val(0); k <= maxKey; k++ {
			if _, err := st.Put(k, 100+k); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		st.Partition(1)
		st.CrashFront()
		if _, err := st.RecoverFront(); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("RecoverFront with a partitioned shard: %v, want ErrUnavailable", err)
		}
		if !st.FrontDown() {
			t.Fatal("front marked up after a refused re-attachment")
		}
		st.Heal(1)
		if _, err := st.RecoverFront(); err != nil {
			t.Fatalf("RecoverFront after heal: %v", err)
		}
		for k := core.Val(0); k <= maxKey; k++ {
			if v, ok, _ := st.Get(k); !ok || v != 100+k {
				t.Fatalf("key %d = (%d,%v) after heal+failover, want %d", k, v, ok, 100+k)
			}
		}
	})

	// A shard down at front-crash time is skipped by the re-attachment
	// and recovers on its own once the front is back.
	t.Run("CrashedShardSkipped", func(t *testing.T) {
		st, err := Open(Config{
			Shards: 2, Capacity: 512, Strategy: GroupCommit, Batch: 3,
			PipelineDepth: 2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := core.Val(0); k <= maxKey; k++ {
			if _, err := st.Put(k, 100+k); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		st.Crash(0)
		st.CrashFront()
		stats, err := st.RecoverFront()
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 1 || stats[0].Shard != 1 {
			t.Fatalf("re-attached %+v, want only shard 1", stats)
		}
		if _, err := st.Recover(0); err != nil {
			t.Fatalf("recover crashed shard after failover: %v", err)
		}
		for k := core.Val(0); k <= maxKey; k++ {
			if v, ok, _ := st.Get(k); !ok || v != 100+k {
				t.Fatalf("key %d = (%d,%v) after shard+front recovery, want %d", k, v, ok, 100+k)
			}
		}
	})
}

// TestPipelinePartitionWhileInFlight pins the partition × pipeline
// interaction: flights already in flight retire fine during a remote
// partition (retirement is pure bookkeeping), ranged flushes keep
// committing because they never leave the shard's own device, while a
// GPF flush is blocked cluster-wide by any partitioned machine — and a
// heal restores commit service with nothing lost.
func TestPipelinePartitionWhileInFlight(t *testing.T) {
	const maxKey = 23
	keysOn := func(st *Store, shard int) []core.Val {
		var ks []core.Val
		for k := core.Val(0); k <= maxKey; k++ {
			if st.ShardOf(k) == shard {
				ks = append(ks, k)
			}
		}
		return ks
	}

	t.Run("ranged", func(t *testing.T) {
		st, err := Open(Config{
			Shards: 2, Capacity: 512, Strategy: RangedCommit, Batch: 3,
			PipelineDepth: 3, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		k0 := keysOn(st, 0)
		writes := 0
		// Stack flights on shard 0, then cut shard 1 off the fabric.
		for i := 0; flightsLen(st, 0) < 2; i++ {
			if i > 300 {
				t.Fatalf("shard 0 never stacked flights (at %d)", flightsLen(st, 0))
			}
			if _, err := st.Put(k0[i%len(k0)], core.Val(1000+i)); err != nil {
				t.Fatal(err)
			}
			writes++
		}
		st.Partition(1)
		// Ranged commits touch only shard 0's device: more writes keep
		// committing and the in-flight flushes retire.
		for i := 0; i < 4*len(k0); i++ {
			if _, err := st.Put(k0[i%len(k0)], core.Val(5000+i)); err != nil {
				t.Fatalf("ranged put during remote partition: %v", err)
			}
			writes++
		}
		if _, _, err := st.Get(k0[0]); err != nil {
			t.Fatalf("get on healthy shard during partition: %v", err)
		}
		// Sync skips the partitioned-but-empty shard 1 and drains shard 0.
		if err := st.Sync(); err != nil {
			t.Fatalf("sync with empty partitioned shard: %v", err)
		}
		if got := st.AckedCount(0); got != writes {
			t.Fatalf("shard 0 acked %d of %d writes during the partition", got, writes)
		}
		if n := flightsLen(st, 0); n != 0 {
			t.Fatalf("%d flights still in flight after Sync", n)
		}
		st.Heal(1)
	})

	t.Run("gpf", func(t *testing.T) {
		st, err := Open(Config{
			Shards: 2, Capacity: 512, Strategy: GroupCommit, Batch: 3,
			PipelineDepth: 3, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		k0 := keysOn(st, 0)
		// Stack flights on shard 0 (same-shard GPFs stack; only OTHER
		// shards' flushes cross-retire), then partition shard 1.
		for i := 0; flightsLen(st, 0) < 2; i++ {
			if i > 300 {
				t.Fatalf("shard 0 never stacked flights (at %d)", flightsLen(st, 0))
			}
			if _, err := st.Put(k0[i%len(k0)], core.Val(1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		st.Partition(1)
		// Reads and already-in-flight retirements still work: retirement
		// needs no fabric operation.
		if _, _, err := st.Get(k0[0]); err != nil {
			t.Fatalf("get on healthy shard during partition: %v", err)
		}
		// A NEW global flush is blocked by the remote partition: the put
		// that fills shard 0's next batch fails cluster-wide.
		var flushErr error
		for i := 0; i < 3; i++ {
			if _, flushErr = st.Put(k0[i%len(k0)], core.Val(7000+i)); flushErr != nil {
				break
			}
		}
		if !errors.Is(flushErr, ErrUnavailable) {
			t.Fatalf("GPF flush during remote partition: %v, want ErrUnavailable", flushErr)
		}
		// Sync cannot drain the open batch either.
		if err := st.Sync(); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("sync during remote partition: %v, want ErrUnavailable", err)
		}
		st.Heal(1)
		if err := st.Sync(); err != nil {
			t.Fatalf("sync after heal: %v", err)
		}
		if n := flightsLen(st, 0); n != 0 {
			t.Fatalf("%d flights in flight after heal+sync", n)
		}
		if st.AckedCount(0) != len(st.shards[0].log) {
			t.Fatalf("shard 0 acked %d of %d after heal+sync", st.AckedCount(0), len(st.shards[0].log))
		}
	})
}

// TestResetMetricsRebasesFlushLane: ResetMetrics discards the shards'
// busy clocks, and the flush lane (laneEnd, in-flight endBusy) is
// positioned on those clocks — it must be rebased with them. Otherwise
// the first group flight after a reset queues behind a phantom lane as
// long as the whole preload, and the measured window absorbs it (what
// workload.Run's preload → Sync → ResetMetrics did to every
// group/K>1 benchmark row). A reset run's post-preload window must cost
// and acknowledge exactly what the same window costs without the reset.
func TestResetMetricsRebasesFlushLane(t *testing.T) {
	const preload, measured = 400, 64
	// window drives preload (+ Sync) then the measured puts (+ Sync) and
	// returns the measured window's summed busy time and ack latencies.
	window := func(t *testing.T, strat Strategy, syncFirst, reset bool) (float64, []float64) {
		t.Helper()
		st, err := Open(Config{Shards: 2, Strategy: strat, Batch: 4, PipelineDepth: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		put := func(i int) {
			if _, err := st.Put(core.Val(i%97), core.Val(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < preload; i++ {
			put(i)
		}
		if syncFirst {
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		st.mu.Lock()
		busy0 := 0.0
		for _, sh := range st.shards {
			busy0 += sh.busyNS
		}
		acked0 := len(st.writeLat)
		st.mu.Unlock()
		if reset {
			st.ResetMetrics()
			busy0 = 0
			acked0 = 0
		}
		for i := preload; i < preload+measured; i++ {
			put(i)
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		busy := -busy0
		for _, sh := range st.shards {
			busy += sh.busyNS
		}
		return busy, st.writeLat[acked0:]
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b)) }
	for _, strat := range []Strategy{GroupCommit, RangedCommit} {
		for _, syncFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/sync=%v", strat, syncFirst), func(t *testing.T) {
				wantBusy, wantAcks := window(t, strat, syncFirst, false)
				gotBusy, gotAcks := window(t, strat, syncFirst, true)
				if !near(gotBusy, wantBusy) {
					t.Errorf("measured busy after ResetMetrics = %.0f ns, want %.0f ns (the same window without a reset)", gotBusy, wantBusy)
				}
				if len(gotAcks) != len(wantAcks) {
					t.Fatalf("acked %d writes in the window after ResetMetrics, want %d", len(gotAcks), len(wantAcks))
				}
				for i := range wantAcks {
					if !near(gotAcks[i], wantAcks[i]) {
						t.Fatalf("ack latency %d after ResetMetrics = %.0f ns, want %.0f ns", i, gotAcks[i], wantAcks[i])
					}
				}
			})
		}
	}
}

// TestCrashTakesWritesInFlight: a crash takes the client writes still
// waiting on their ack into the down shard's view, since recovery may
// salvage every one of them. The shard's live count includes them, and
// a range read that meets only them fails instead of leaving them out.
func TestCrashTakesWritesInFlight(t *testing.T) {
	st := openTest(t, Config{Shards: 1, Capacity: 64, Strategy: RangedCommit, Batch: 2, PipelineDepth: 3, Seed: 3})
	for k := core.Val(0); k < 4; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	for k := core.Val(100); k < 104; k++ {
		if _, err := st.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if acked := st.AckedCount(0); acked != 4 {
		t.Fatalf("%d records acked before the crash, want the 4 synced ones only", acked)
	}
	st.Crash(0)
	if live := st.Metrics().PerShardLive[0]; live != 8 {
		t.Fatalf("PerShardLive = %d after the crash, want 8: the four writes in flight count", live)
	}
	if pairs, err := st.Scan(100, 200, 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Scan over the in-flight keys of a down shard = %v, %v; want ErrShardDown", pairs, err)
	}
	if _, err := st.Recover(0); err != nil {
		t.Fatal(err)
	}
	if pairs, err := st.Scan(100, 200, 0); err != nil || len(pairs) != 4 {
		t.Fatalf("Scan after recovery = %v, %v; want the four salvaged writes", pairs, err)
	}
}

// TestFlightQueueDoesNotAllocate: the flight queue keeps its buffer.
// retireFlight shifts in place and a crash's foldFlights truncates, so
// issueFlight never regrows the queue. Every measured run issues and
// retires four flights on one shard at depth 2, after the store's own
// append-only series (the log, the latency logs) were grown ahead, so an
// allocation left would be the queue's.
func TestFlightQueueDoesNotAllocate(t *testing.T) {
	const runs, flights = 50, 4
	st := openTest(t, Config{Shards: 1, Capacity: 1 << 12, Strategy: RangedCommit, Batch: 1, PipelineDepth: 2, Seed: 5})
	put := func() {
		for k := range core.Val(flights) {
			if _, err := st.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash := func() {
		t.Helper()
		if n := flightsLen(st, 0); n != 2 {
			t.Fatalf("%d flights in flight before the crash, want 2", n)
		}
		st.Crash(0)
		if _, err := st.Recover(0); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(after string) {
		t.Helper()
		st.mu.Lock()
		sh := st.shards[0]
		sh.log = slices.Grow(sh.log, (runs+1)*flights)
		st.writeLat = slices.Grow(st.writeLat, (runs+1)*flights)
		st.issueLat = slices.Grow(st.issueLat, (runs+1)*flights)
		st.mu.Unlock()
		before := st.Metrics().PipelinedCommits
		if allocs := testing.AllocsPerRun(runs, put); allocs != 0 {
			t.Errorf("%s: issuing and retiring %d flights allocates %v times", after, flights, allocs)
		}
		if n := st.Metrics().PipelinedCommits - before; n < runs*flights {
			t.Fatalf("%s: %d flights issued in %d runs, want %d a run", after, n, runs, flights)
		}
	}
	put()
	measure("a fresh queue")
	crash()
	put()
	measure("a crash")
}
