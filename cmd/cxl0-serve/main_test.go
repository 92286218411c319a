package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/obs"
	"cxl0/internal/pool"
	"cxl0/internal/workload"
)

// newTestServer builds a small observed 2-cluster service with the
// driver running, plus its handlers behind httptest.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	r, err := pool.Open(pool.Config{
		Clusters: 2,
		Store:    kv.Config{Shards: 2, Strategy: kv.GroupCommit, Batch: 8, Capacity: 2048, CompactAtFill: 0.85, PipelineDepth: 2, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(obs.DefaultBusSize)
	stats := obs.NewStats()
	r.Observe(obs.NewRecorder(bus, stats))
	spec, err := workload.YCSB("A")
	if err != nil {
		t.Fatal(err)
	}
	spec.Keys = 100
	s := &server{db: r, bus: bus, stats: stats, spec: spec, started: time.Now(), campaign: "partitioned"} //cxl0:hostclock — dashboard uptime
	for k := 0; k < spec.Keys; k++ {
		if _, err := r.Put(core.Val(k), core.Val(k+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.drive(ctx, 2000, 3, "partitioned", 150)
	}()

	ts := httptest.NewServer(s.mux())
	t.Cleanup(func() {
		cancel()
		ts.Close()
		wg.Wait()
	})
	return ts
}

// TestRunRejectsEmptyKeyspace holds run to the shapes it can serve. With
// -keys 0 the server used to preload nothing and serve workload D's
// inserts over an empty keyspace, where some ops carry negative keys and
// fail with kv.ErrBadKey; with -clusters 0 or -shards -2 it served one
// cluster or one shard while its banner printed the value given. The
// context is already cancelled, so a run that accepts the flags returns
// nil at once.
func TestRunRejectsEmptyKeyspace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "D", "-keys", "0"}, "keyspace must be positive"},
		{[]string{"-workload", "D", "-keys", "-5"}, "keyspace must be positive"},
		{[]string{"-clusters", "0"}, "-clusters must be positive"},
		{[]string{"-shards", "-2"}, "-shards must be positive"},
	} {
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: run returned %v, want an error saying %q", tc.args, err, tc.want)
		}
	}
}

// startRun runs the whole command on a free local port and returns the
// server's base URL and a stop function that cancels run's context and
// returns what run returned.
func startRun(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrc, errc := make(chan string, 1), make(chan error, 1)
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), func(addr string) { addrc <- addr })
	}()
	var url string
	select {
	case addr := <-addrc:
		url = "http://" + addr
	case err := <-errc:
		t.Fatalf("run returned before serving: %v", err)
	}
	return url, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second): //cxl0:hostclock — test timeout
			t.Fatal("run did not return within 10 s of its context being cancelled")
			return nil
		}
	}
}

// pollMetrics scrapes url's /metrics until ok holds, failing the test
// after 10 s, and returns the sample it held on.
func pollMetrics(t *testing.T, url, what string, ok func(metricsSnapshot) bool) metricsSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //cxl0:hostclock — test timeout
	for {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m metricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ok(m) {
			return m
		}
		if time.Now().After(deadline) { //cxl0:hostclock — test timeout
			t.Fatalf("after 10 s of /metrics samples, never: %s (last: %+v)", what, m)
		}
		time.Sleep(50 * time.Millisecond) //cxl0:hostclock — let the host-paced driver run
	}
}

// TestRunServesReadCacheAndStops runs the command at its defaults (a
// 256-entry read cache with prefetch on every front end): the driver's
// reads flow through the cache, and cancelling the context (what
// SIGINT/SIGTERM do in main) drains the server and returns nil.
func TestRunServesReadCacheAndStops(t *testing.T) {
	url, stop := startRun(t, "-rate", "2000")
	pollMetrics(t, url, "reads go through a non-empty read cache", func(m metricsSnapshot) bool {
		return m.KV.CacheHits+m.KV.CacheMisses > 0 && m.KV.CacheSize > 0
	})
	if err := stop(); err != nil {
		t.Fatalf("run returned %v after its context was cancelled, want nil", err)
	}
}

// TestRunPartitionedCampaign drives the partitioned fault campaign end
// to end: it cuts a shard off every 150 ops and heals it half a window
// later, so the obs counters must show a partition and its heal, and the
// ops the partition denies are tolerated, not counted as failures.
func TestRunPartitionedCampaign(t *testing.T) {
	url, stop := startRun(t, "-rate", "2000", "-campaign", "partitioned", "-campaign-every", "150")
	m := pollMetrics(t, url, "a partition and its heal", func(m metricsSnapshot) bool {
		return m.Obs.Partitions >= 1 && m.Obs.Heals >= 1
	})
	if m.Obs.Heals > m.Obs.Partitions {
		t.Errorf("%d heals for %d partitions", m.Obs.Heals, m.Obs.Partitions)
	}
	if m.Failed != 0 {
		t.Errorf("%d ops failed under the partitioned campaign, want 0", m.Failed)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsEndpointAdvances(t *testing.T) {
	ts := newTestServer(t)

	get := func() metricsSnapshot {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		var m metricsSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := get()
	if m1.Clusters != 2 || m1.Workload != "A" {
		t.Fatalf("snapshot identity wrong: %+v", m1)
	}
	if len(m1.Shards) != 4 {
		t.Fatalf("snapshot has %d shard rows, want 4", len(m1.Shards))
	}
	// The driver is host-paced, compacts every 2500 ops (restarting a
	// shard's acked count at 0) and, under the partitioned campaign, holds
	// a cluster's group commits for half of every 150-op window, so one
	// sample after a fixed sleep may land anywhere in that cycle. Poll
	// until every condition holds at once.
	conds := []struct {
		what string
		ok   func(m2 metricsSnapshot) bool
	}{
		{"ops advance", func(m2 metricsSnapshot) bool { return m2.Ops > m1.Ops }},
		{"the sim clock advances", func(m2 metricsSnapshot) bool { return m2.SimNS > m1.SimNS }},
		{"writes are acked under a running update-heavy workload", func(m2 metricsSnapshot) bool { return m2.KV.Acked > 0 }},
		{"the bus publishes under instrumentation", func(m2 metricsSnapshot) bool { return m2.Bus.Published > 0 }},
		{"a PipelineDepth=2 batched store pipelines commits", func(m2 metricsSnapshot) bool { return m2.KV.PipelinedCommits > 0 }},
		{"the max in-flight depth is >= 1 with the pipeline active", func(m2 metricsSnapshot) bool { return m2.KV.MaxInFlight >= 1 }},
		{"a shard row reports an advanced acked-watermark", func(m2 metricsSnapshot) bool {
			for _, row := range m2.Shards {
				if row.Acked > 0 {
					return true
				}
			}
			return false
		}},
		{"the faults block reports the partitioned campaign", func(m2 metricsSnapshot) bool { return m2.Faults.Campaign == "partitioned" }},
		{"the faults shard lists are present (empty, not null)", func(m2 metricsSnapshot) bool {
			return m2.Faults.Down != nil && m2.Faults.Partitioned != nil && m2.Faults.Degraded != nil
		}},
	}
	held := make([]bool, len(conds))
	deadline := time.Now().Add(10 * time.Second) //cxl0:hostclock — test timeout
	for {
		time.Sleep(50 * time.Millisecond) //cxl0:hostclock — let the host-paced driver run
		m2, all := get(), true
		for i, c := range conds {
			ok := c.ok(m2)
			held[i] = held[i] || ok
			all = all && ok
		}
		if all {
			return
		}
		if time.Now().After(deadline) { //cxl0:hostclock — test timeout
			for i, c := range conds {
				if !held[i] {
					t.Fatalf("after 10 s of /metrics samples, never: %s (last: %+v)", c.what, m2)
				}
			}
			t.Fatalf("after 10 s of /metrics samples, each condition held at some point but never all at once (last: %+v)", m2)
		}
	}
}

// TestMetricsKVKeys pins the /metrics compatibility contract: the kv
// block is kv.Counters plus two gauges, so its keys are whatever the
// struct tags say — and these 19, served since before the counters had
// one declaration, must stay among them, each a number. (The dashboard
// and scrapers read them by name.)
func TestMetricsKVKeys(t *testing.T) {
	ts := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		KV map[string]json.Number `json:"kv"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("the kv block must be a flat object of numbers: %v", err)
	}
	for _, key := range []string{
		"puts", "gets", "deletes", "scans", "scanned_pairs", "scan_discarded_pairs",
		"acked", "commits", "dropped_pending", "recoveries", "migrations",
		"compactions", "reclaimed_slots", "pipelined_commits", "max_in_flight",
		"cache_hits", "cache_misses", "speculative_fills", "cache_size",
	} {
		if _, ok := doc.KV[key]; !ok {
			t.Errorf("/metrics kv block no longer serves %q", key)
		}
	}
}

func TestEventsEndpointStreams(t *testing.T) {
	ts := newTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	var lastKind string
	for sc.Scan() && events < 10 {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			lastKind = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			var e struct {
				Seq  uint64 `json:"seq"`
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			if e.Seq == 0 || e.Kind == "" {
				t.Fatalf("event missing seq/kind: %q", line)
			}
			if e.Kind != lastKind {
				t.Fatalf("SSE event name %q disagrees with payload kind %q", lastKind, e.Kind)
			}
			events++
		}
	}
	if events < 10 {
		t.Fatalf("read %d events before the stream ended, want 10", events)
	}
}

func TestDashboardServed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"<!doctype html", "EventSource", "/metrics", "busy share", "in-flight", "pipelined"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	if resp, err := ts.Client().Get(ts.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != 404 {
		t.Fatalf("unknown path served %d, want 404", resp.StatusCode)
	}
}
