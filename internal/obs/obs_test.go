package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestBusDeliveryInOrder(t *testing.T) {
	b := NewBus(8)
	sub := b.Subscribe()
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: KindOp, N: i})
	}
	evs := sub.Poll(0)
	if len(evs) != 5 {
		t.Fatalf("Poll returned %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.N != i {
			t.Fatalf("event %d = seq %d n %d, want seq %d n %d", i, e.Seq, e.N, i+1, i)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("Dropped() = %d, want 0", d)
	}
	if evs := sub.Poll(0); evs != nil {
		t.Fatalf("second Poll returned %d events, want none", len(evs))
	}
}

func TestBusDropCounting(t *testing.T) {
	b := NewBus(4)
	sub := b.Subscribe()
	for i := 0; i < 10; i++ {
		b.Publish(Event{N: i})
	}
	// Ring holds seqs 7..10; 1..6 were overwritten before the poll.
	evs := sub.Poll(0)
	if len(evs) != 4 {
		t.Fatalf("Poll returned %d events, want 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("Poll returned seqs %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
	if d := sub.Dropped(); d != 6 {
		t.Fatalf("Dropped() = %d, want 6", d)
	}
}

func TestBusKeepingUpDropsNothing(t *testing.T) {
	b := NewBus(16)
	sub := b.Subscribe()
	total := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			b.Publish(Event{})
		}
		total += len(sub.Poll(0))
	}
	if total != 500 {
		t.Fatalf("drained %d events, want 500", total)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("Dropped() = %d, want 0", d)
	}
}

func TestBusSubscribeSeesOnlyFutureEvents(t *testing.T) {
	b := NewBus(8)
	b.Publish(Event{N: 1})
	sub := b.Subscribe()
	b.Publish(Event{N: 2})
	evs := sub.Poll(0)
	if len(evs) != 1 || evs[0].N != 2 {
		t.Fatalf("Poll = %+v, want the single post-subscribe event", evs)
	}
}

func TestBusNextWakesOnPublish(t *testing.T) {
	b := NewBus(8)
	sub := b.Subscribe()
	done := make(chan []Event, 1)
	go func() { done <- sub.Next(10, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond) //cxl0:hostclock — test scheduling wait, not sim time
	b.Publish(Event{N: 42})
	select {
	case evs := <-done:
		if len(evs) != 1 || evs[0].N != 42 {
			t.Fatalf("Next = %+v, want one event with N 42", evs)
		}
	case <-time.After(2 * time.Second): //cxl0:hostclock — test timeout
		t.Fatal("Next did not wake on publish")
	}
	if evs := sub.Next(10, 10*time.Millisecond); evs != nil {
		t.Fatalf("idle Next = %+v, want timeout nil", evs)
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Publish(Event{})
			}
		}()
	}
	wg.Wait()
	if b.Seq() != 800 {
		t.Fatalf("Seq() = %d, want 800", b.Seq())
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 100 samples at ~1000ns, 10 at ~1e6ns: p50 in the 1000ns bucket,
	// p99 in the 1e6 bucket. Log2 buckets are coarse, so assert the
	// right power-of-two neighborhood, not exact values.
	for i := 0; i < 100; i++ {
		h.add(1000)
	}
	for i := 0; i < 10; i++ {
		h.add(1e6)
	}
	if h.N() != 110 {
		t.Fatalf("N = %d, want 110", h.N())
	}
	p50 := h.Quantile(0.50)
	if p50 < 512 || p50 > 2048 {
		t.Fatalf("p50 = %g, want within the 1000ns bucket neighborhood", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 512e3 || p99 > 2048e3 {
		t.Fatalf("p99 = %g, want within the 1e6ns bucket neighborhood", p99)
	}
	if mean := h.Mean(); math.Abs(mean-(100*1000+10*1e6)/110) > 1e-6 {
		t.Fatalf("Mean = %g, want exact mean", mean)
	}
	var empty Hist
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Fatal("empty Hist quantile/mean should be 0")
	}
}

func TestRateWindowRolls(t *testing.T) {
	var w rateWindow
	now := int64(1000)
	for i := 0; i < 30; i++ {
		w.add(now)
	}
	if r := w.perSec(now); r != 3.0 {
		t.Fatalf("perSec = %g, want 3.0 (30 events / 10s window)", r)
	}
	// rateSecs seconds later the window has rolled past every bucket.
	if r := w.perSec(now + rateSecs); r != 0 {
		t.Fatalf("perSec after window rolled = %g, want 0", r)
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := NewStats()
	fixed := time.Unix(5000, 0)
	s.now = func() time.Time { return fixed }
	rec := NewRecorder(nil, s)
	for i := 0; i < 10; i++ {
		rec.OpSpan(OpPut, 1, 0, 2000, 1, 1, true)
	}
	rec.OpSpan(OpGet, 0, 0, 500, 1, 0, false)
	rec.Commit(1, 0, 100, 4, 4, 1, 0)
	rec.MigrationStep("before-copy", false, 3, 0, 1, 7, 0)
	rec.MigrationStep("after-flip", true, 3, 0, 1, 7, 0)
	rec.CompactionStep("after-reclaim", true, 0, 1, 5, 9, 0)
	rec.Mark(KindCrash, 0, 0, 0, 0)
	rec.Recover(0, 0, 10, 3, 1, 2)
	rec.Mark(KindRebalance, -1, 2, 0, 50)

	snap := s.Snapshot()
	if snap.OpSpans != 11 || snap.Commits != 1 || snap.Migrations != 1 ||
		snap.Compactions != 1 || snap.Crashes != 1 || snap.Recoveries != 1 || snap.Rebalances != 1 {
		t.Fatalf("snapshot counters = %+v", snap)
	}
	if len(snap.Ops) != 2 {
		t.Fatalf("snapshot has %d op rows, want 2 (put, get)", len(snap.Ops))
	}
	var put *OpSnapshot
	for i := range snap.Ops {
		if snap.Ops[i].Op == "put" {
			put = &snap.Ops[i]
		}
	}
	if put == nil || put.Count != 10 {
		t.Fatalf("put row = %+v, want count 10", put)
	}
	if put.RatePerSec != 1.0 {
		t.Fatalf("put rate = %g, want 1.0 (10 events / 10s window)", put.RatePerSec)
	}
	if len(snap.Shards) != 2 || snap.Shards[0].Shard != 0 || snap.Shards[1].Shard != 1 {
		t.Fatalf("shard rows = %+v, want shards 0 and 1 in order", snap.Shards)
	}
}

func TestRecorderTagging(t *testing.T) {
	b := NewBus(32)
	sub := b.Subscribe()
	root := NewRecorder(b, nil)
	c1 := root.Tagged(1, 4) // cluster 1, shards start at global index 4
	c1.OpSpan(OpPut, 2, 0, 10, 1, 1, true)
	root.OpSpan(OpGet, 2, 0, 10, 1, 0, true)
	evs := sub.Poll(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Cluster != 1 || evs[0].Shard != 6 {
		t.Fatalf("tagged event = cluster %d shard %d, want cluster 1 shard 6", evs[0].Cluster, evs[0].Shard)
	}
	if evs[1].Cluster != -1 || evs[1].Shard != 2 {
		t.Fatalf("untagged event = cluster %d shard %d, want cluster -1 shard 2", evs[1].Cluster, evs[1].Shard)
	}
	if evs[0].Span == evs[1].Span || evs[0].Span == 0 {
		t.Fatalf("span IDs %d and %d should be distinct and nonzero", evs[0].Span, evs[1].Span)
	}
}

func TestRecorderFanOutLinking(t *testing.T) {
	b := NewBus(32)
	sub := b.Subscribe()
	stats := NewStats()
	rec := NewRecorder(b, stats)
	span := rec.NewSpan()
	rec.FanOutLeg(span, OpMultiGet, 0, 0, 5, 2)
	rec.FanOutLeg(span, OpMultiGet, 1, 0, 7, 3)
	rec.FanOut(span, OpMultiGet, 0, 12, 5)
	evs := sub.Poll(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for _, e := range evs[:2] {
		if e.Parent != span {
			t.Fatalf("leg parent = %d, want %d", e.Parent, span)
		}
	}
	if evs[2].Span != span || evs[2].Parent != 0 {
		t.Fatalf("parent event span/parent = %d/%d, want %d/0", evs[2].Span, evs[2].Parent, span)
	}
	// Fan-out events are events-only: no histogram samples.
	if snap := stats.Snapshot(); snap.OpSpans != 0 || len(snap.Ops) != 0 {
		t.Fatalf("fan-out events leaked into stats: %+v", snap)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.OpSpan(OpPut, 0, 0, 1, 1, 1, true)
	r.FanOut(1, OpScan, 0, 1, 1)
	r.FanOutLeg(1, OpScan, 0, 0, 1, 1)
	r.Commit(0, 0, 1, 1, 1, 1, 0)
	r.WriteLatency(1, 1)
	r.Mark(KindCrash, 0, 0, 0, 0)
	r.Recover(0, 0, 1, 1, 1, 1)
	r.MigrationStep("after-flip", true, 0, 0, 1, 1, 0)
	r.CompactionStep("after-reclaim", true, 0, 1, 1, 1, 0)
	if r.NewSpan() != 0 || r.Tagged(1, 2) != nil {
		t.Fatal("nil recorder accessors should return zero values")
	}
}

// TestEventJSON pins the event wire form byte for byte — what /events
// streams and scrapers parse: one event of every kind under every op,
// OpNone (op omitted) and out-of-range kinds and ops included, plus the
// zero event (every omitempty field omitted).
func TestEventJSON(t *testing.T) {
	kinds := []string{
		"op", "commit", "migration", "compaction", "crash", "recover", "rebalance",
		"partition", "heal", "degrade", "hit", "miss", "speculative", "Kind(13)",
	}
	ops := []string{"", "put", "delete", "get", "multiget", "scan", "apply", "Op(7)"}
	const tail = `"step":"after-flip","span":3,"parent":2,"cluster":1,"shard":-1,"bucket":12,"from":3,"to":5,` +
		`"epoch":4,"n":9,"acked":2,"lost":1,"durable":true,"depth":2,"queue_ns":1.5,"start_ns":100,"end_ns":250.25}`
	e := Event{
		Seq: 7, Step: "after-flip", Span: 3, Parent: 2, Cluster: 1, Shard: -1, Bucket: 12, From: 3, To: 5,
		Epoch: 4, N: 9, Acked: 2, Lost: 1, Durable: true, Depth: 2, QueueNS: 1.5, StartNS: 100, EndNS: 250.25,
	}
	check := func(e Event, want string) {
		t.Helper()
		got, err := json.Marshal(e)
		if err != nil || string(got) != want {
			t.Errorf("kind %d op %d: marshaled %s (err %v)\nwant %s", int(e.Kind), int(e.Op), got, err, want)
		}
	}
	for k, kind := range kinds {
		for o, op := range ops {
			e.Kind, e.Op = Kind(k), Op(o)
			if op != "" {
				op = `"op":"` + op + `",`
			}
			check(e, `{"seq":7,"kind":"`+kind+`",`+op+tail)
		}
	}
	e.Kind, e.Op = -1, -2
	check(e, `{"seq":7,"kind":"Kind(-1)","op":"Op(-2)",`+tail)
	check(Event{}, `{"seq":0,"kind":"op","cluster":0,"shard":0,"bucket":0,"from":0,"to":0,"n":0,"acked":0,`+
		`"lost":0,"durable":false,"depth":0,"queue_ns":0,"start_ns":0,"end_ns":0}`)
}
