package kvtest

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/golden"
	"cxl0/internal/kv"
	"cxl0/internal/obs"
	"cxl0/internal/workload"
)

// DeterministicReplay pins the simulator's replay-determinism invariant
// at the service level: driving the same seeded workload against two
// fresh DBs from the same factory must produce byte-identical outcomes —
// every per-operation result, the final Metrics document (as JSON), and
// the complete observability event stream (sequence numbers, spans and
// simulated timestamps included).
//
// This is the dynamic counterpart of the simdeterminism analyzer
// (cmd/cxl0-lint): the analyzer forbids the usual divergence sources
// (host clocks, global RNG, map-iteration order) in sim-path packages
// statically; this case catches whatever slips past it — an annotated
// site that was not order-insensitive after all, or nondeterminism the
// rules do not model. The run deliberately crosses the churn paths where
// iteration order is easiest to leak: crash/recovery, partition/heal,
// bucket rebalancing and log compaction.
//
// Each case's outcome is also pinned across commits: see ReplayCases.
func DeterministicReplay(t *testing.T, f Factory) {
	for _, c := range replayCases() {
		t.Run(c.name, func(t *testing.T) {
			first := replayRun(t, f, c.strat, c.depth, c.cache)
			second := replayRun(t, f, c.strat, c.depth, c.cache)
			compareReplay(t, "operation results", first.results, second.results)
			compareReplay(t, "metrics", first.metrics, second.metrics)
			compareReplay(t, "event stream", first.events, second.events)
		})
	}
}

// replayCase is one configuration of the replay matrix.
type replayCase struct {
	name  string
	strat kv.Strategy
	depth int
	cache int
}

// replayCases is the full matrix: every strategy, the asynchronous
// commit pipeline on top of the batched ones, each with the read cache
// and prefetcher off and on. Between them the cases cross every append,
// commit, watermark, retire and invalidation path (the cache is small
// enough that the LRU evicts during the run), so a refactor of any of
// them either replays to the pinned digests or shows up here.
func replayCases() []replayCase {
	names := [...]string{"MStoreEach", "StoreFlush", "RStoreFlush", "GPFEach", "GroupCommit", "RangedCommit"}
	var cases []replayCase
	for _, strat := range kv.Strategies {
		depths := []int{1}
		if strat.Batched() {
			depths = append(depths, 3)
		}
		for _, depth := range depths {
			for _, cache := range []int{0, 32} {
				name := names[strat]
				if depth > 1 {
					name += "/pipelined"
				}
				if cache > 0 {
					name += "+cache"
				}
				cases = append(cases, replayCase{name, strat, depth, cache})
			}
		}
	}
	return cases
}

// ReplayCases runs each DeterministicReplay case of f once and returns
// its outcome as a golden case, named as the subtest of test (the
// conformance test that calls Run with f) that replays it twice. Its text
// is the operation results, the metrics document and the rendered event
// stream, each after its length. Each test binary pins its cases' digests
// in its own testdata/replay.golden through golden.Check: replay
// determinism says two runs of one build agree; the digests say two
// builds agree — which is what makes "zero behavioural diff" a tier-1
// check for refactors of the commit, cache and recovery paths. Only a
// change that means to alter simulated behaviour reruns it with -update.
func ReplayCases(t *testing.T, test string, f Factory) []golden.Case {
	var cases []golden.Case
	for _, c := range replayCases() {
		out := replayRun(t, f, c.strat, c.depth, c.cache)
		var text strings.Builder
		for _, part := range []string{out.results, out.metrics, out.events} {
			fmt.Fprintf(&text, "%d\n%s", len(part), part)
		}
		cases = append(cases, golden.Case{Name: test + "/DeterministicReplay/" + c.name, Text: text.String()})
	}
	return cases
}

// replayOutcome is everything one replay run produced, each part
// rendered to a deterministic textual form for byte comparison.
type replayOutcome struct {
	results string
	metrics string
	events  string
}

// replayRun drives one seeded workload against a fresh DB and renders
// the outcome. Every run performs exactly the same call sequence —
// including the fault, rebalance and compaction churn at fixed operation
// indices — so any divergence between two runs is the DB's, not the
// driver's.
func replayRun(t *testing.T, f Factory, strat kv.Strategy, depth, cache int) replayOutcome {
	t.Helper()
	cfg := kv.Config{
		Shards: 2, Strategy: strat, Batch: 4, Seed: 21, EvictEvery: 3,
		// Small logs plus auto-compaction so the run compacts on its own,
		// on top of the explicit churn below.
		Capacity: 256, CompactAtFill: 0.6,
		PipelineDepth: depth,
		// Cache-on case only: small enough that the LRU evicts during the
		// run, so eviction order is under replay comparison too.
		ReadCache: cache, Prefetch: cache > 0,
	}
	db := f(t, cfg)

	var events strings.Builder
	bus := obs.NewBus(obs.DefaultBusSize)
	sub := bus.Subscribe()
	db.Observe(obs.NewRecorder(bus, nil))
	drain := func() {
		for _, e := range sub.Poll(0) {
			fmt.Fprintf(&events, "%+v\n", e)
		}
	}

	spec := workload.Spec{
		Name: "replay", ReadPct: 40, UpdatePct: 30, InsertPct: 20, ScanPct: 10,
		Dist: workload.Zipfian, Keys: 64, MaxScanLen: 8,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(spec, 7)

	var results strings.Builder
	record := func(format string, args ...interface{}) {
		fmt.Fprintf(&results, format+"\n", args...)
	}

	for k := core.Val(0); k < core.Val(spec.Keys); k++ {
		ack, err := db.Put(k, k+1)
		record("preload %d: %+v %v", k, ack, err)
	}

	const ops = 320
	for i := 0; i < ops; i++ {
		// Deterministic churn at fixed indices: a partition window, a
		// crash/recovery, a rebalance and an explicit compaction; and the
		// batch calls, which the workload does not issue: an Apply and a
		// MultiGet before the window, a MultiGet and an Apply inside it.
		// Errors are recorded, not fatal — a Put denied by the partition
		// window is part of the outcome being compared.
		switch i {
		case 100, 140:
			b := new(kv.Batch).Put(3, core.Val(i)).Put(17, 7).Delete(29).Put(41, 9).Put(55, core.Val(i)+1).Put(60, 2)
			ack, err := db.Apply(b)
			record("batch %d apply: %+v %v", i, ack, err)
			res, err := db.MultiGet([]core.Val{1, 3, 9, 17, 29, 33, 41, 55, 60, 70})
			record("batch %d multiget: %+v %v", i, res, err)
		case 120:
			db.Partition(i % db.NumShards())
		case 160:
			db.Heal(120 % db.NumShards())
		case 200:
			sh := i % db.NumShards()
			db.Crash(sh)
			stats, err := db.Recover(sh)
			record("churn recover %d: %+v %v", sh, stats, err)
		case 240:
			moves, err := db.Rebalance()
			record("churn rebalance: %+v %v", moves, err)
		case 280:
			stats, err := db.Compact()
			record("churn compact: %+v %v", stats, err)
		}

		op := gen.Next()
		switch op.Kind {
		case workload.OpRead:
			v, ok, err := db.Get(core.Val(op.Key))
			record("op %d get %d: %d %v %v", i, op.Key, v, ok, err)
		case workload.OpUpdate, workload.OpInsert:
			ack, err := db.Put(core.Val(op.Key), core.Val(op.Value))
			record("op %d put %d: %+v %v", i, op.Key, ack, err)
		case workload.OpScan:
			pairs, err := db.Scan(core.Val(op.Key), core.Val(op.Key+int64(op.ScanLen)), 0)
			record("op %d scan %d+%d: %v %v", i, op.Key, op.ScanLen, pairs, err)
		}
		if i%16 == 15 {
			drain()
		}
	}
	if err := db.Sync(); err != nil {
		record("final sync: %v", err)
	}
	drain()
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscriber dropped %d events; the stream comparison would be partial — drain more often or grow the bus", d)
	}

	return replayOutcome{results: results.String(), metrics: metricsDoc(t, db.Metrics()), events: events.String()}
}

// metricsDoc renders m as its JSON document: the store's /metrics keys
// for the counters, the Go field names for the rest, in declaration
// order.
func metricsDoc(t *testing.T, m kv.Metrics) string {
	t.Helper()
	doc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// compareReplay fails with the first divergent line when two renderings
// of the same replay artifact differ.
func compareReplay(t *testing.T, what, a, b string) {
	t.Helper()
	if n, diff := golden.FirstDifference(a, b, "run 1", "run 2"); n > 0 {
		t.Fatalf("%s diverged at line %d:\n%s", what, n, diff)
	}
}
