// Command cxl0-serve runs the pooled KV service under a continuous
// synthetic workload and serves a live ops surface over HTTP:
//
//	GET /         — embedded HTML dashboard (no external assets)
//	GET /metrics  — JSON snapshot: counters, per-shard gauges, rolling
//	                rates and simulated-latency percentiles
//	GET /events   — the observability event stream over Server-Sent
//	                Events, one typed JSON event per frame
//
// The driver paces a YCSB-style workload on the host clock (-rate),
// periodically runs rebalance checks and compaction sweeps, and loops a
// scripted fault campaign (internal/faults, -campaign): uniform
// crash/recover cycles by default, or correlated crashes, device
// degradation or fabric partitions — so every event kind in internal/obs
// flows through the stream and the dashboard shows graceful degradation.
// SIGINT/SIGTERM shut the server down cleanly (exit 0).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cxl0/internal/core"
	"cxl0/internal/faults"
	"cxl0/internal/kv"
	"cxl0/internal/obs"
	"cxl0/internal/pool"
	"cxl0/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: parse args, open and preload the service,
// then drive and serve it until ctx is done. ready, if not nil, is
// called with the listen address once the server accepts connections.
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("cxl0-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	clusters := fs.Int("clusters", 2, "pooled cluster count")
	shards := fs.Int("shards", 2, "shards per cluster")
	strategyF := fs.String("strategy", kv.GroupCommit.String(), fmt.Sprintf("persistence strategy, one of %v", kv.Strategies))
	pipeline := fs.Int("pipeline", 2, "commit pipeline depth for batched strategies (1 = blocking commit)")
	cacheCap := fs.Int("cache", 256, "per-front-end read-cache entry capacity (0 disables the cache and prefetcher)")
	workloadF := fs.String("workload", "A", "YCSB workload (A,B,C,D,E)")
	keys := fs.Int("keys", 500, "preloaded keyspace size")
	rate := fs.Int("rate", 500, "target operations per host second")
	campaignF := fs.String("campaign", "uniform", "looping fault-campaign class (uniform, correlated, degraded, partitioned; empty disables)")
	campaignEvery := fs.Int("campaign-every", 4000, "ops between campaign fault windows")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *clusters < 1 {
		return fmt.Errorf("cxl0-serve: -clusters must be positive")
	}
	if *shards < 1 {
		return fmt.Errorf("cxl0-serve: -shards must be positive")
	}
	strat, err := kv.ParseStrategy(*strategyF)
	if err != nil {
		return err
	}
	spec, err := workload.YCSB(*workloadF)
	if err != nil {
		return err
	}
	spec.Keys = *keys
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("cxl0-serve: %w", err)
	}
	if *rate <= 0 {
		return fmt.Errorf("cxl0-serve: -rate must be positive")
	}
	if *campaignF != "" {
		// Validate the class and its period up front; drive rebuilds the
		// schedule each cycle.
		if _, err := faults.ForClass(*campaignF, 1, 1, *campaignEvery); err != nil {
			return fmt.Errorf("cxl0-serve: -campaign %q -campaign-every %d: %w", *campaignF, *campaignEvery, err)
		}
	}

	r, err := pool.Open(pool.Config{
		Clusters: *clusters,
		Store: kv.Config{
			Shards: *shards, Strategy: strat, Batch: 16,
			// Continuous serving: auto-compaction keeps the logs
			// reusable indefinitely.
			Capacity: 4096, CompactAtFill: 0.85,
			PipelineDepth: *pipeline,
			// Each pooled front end gets its own coherent read cache and
			// speculative prefetcher (see docs/caching.md).
			ReadCache: *cacheCap, Prefetch: *cacheCap > 0,
			Seed: *seed + 1,
		},
	})
	if err != nil {
		return err
	}
	bus := obs.NewBus(obs.DefaultBusSize)
	stats := obs.NewStats()
	r.Observe(obs.NewRecorder(bus, stats))

	s := &server{
		db: r, bus: bus, stats: stats,
		spec: spec, started: time.Now(), //cxl0:hostclock — dashboard uptime, not sim state
		campaign: *campaignF,
	}
	for k := 0; k < spec.Keys; k++ {
		if _, err := r.Put(core.Val(k), core.Val(k+1)); err != nil {
			return fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	if err := r.Sync(); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.drive(ctx, *rate, *seed, *campaignF, *campaignEvery)
	}()

	srv := &http.Server{Addr: *addr, Handler: s.mux()}
	campaignNote := ""
	if *campaignF != "" {
		campaignNote = fmt.Sprintf(", %s campaign every %d ops", *campaignF, *campaignEvery)
	}
	pipeNote := ""
	if *pipeline > 1 && strat.Batched() {
		pipeNote = fmt.Sprintf(", commit pipeline K=%d", *pipeline)
	}
	log.Printf("cxl0-serve: %d cluster(s) × %d shard(s), %s strategy%s, workload %s at %d ops/s%s on %s",
		*clusters, *shards, strat, pipeNote, spec.Name, *rate, campaignNote, ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case <-ctx.Done():
	case err := <-errc:
		return err
	}
	// Graceful drain; SSE handlers watch ctx and exit within a poll
	// interval.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
	}
	wg.Wait()
	log.Printf("cxl0-serve: drained after %d ops, bye", s.ops.Load())
	return nil
}

// server bundles the observed pooled service behind the HTTP handlers.
type server struct {
	db       *pool.Router
	bus      *obs.Bus
	stats    *obs.Stats
	spec     workload.Spec
	started  time.Time
	campaign string // looping fault-campaign class, "" when disabled

	ops         atomic.Uint64 // workload ops driven
	failed      atomic.Uint64 // ops lost to a crashed shard (data at risk)
	unavailable atomic.Uint64 // ops denied by a fabric partition (data intact)
	partial     atomic.Uint64 // fan-outs that degraded to a partial result
}

// mux routes the three endpoints; shared with the handler tests.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.dashboard)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/events", s.events)
	return mux
}

// The driver's control-plane cadences, in ops.
const (
	rebalanceEvery = 1500
	compactEvery   = 2500
)

// drive paces the workload on the host clock until ctx is done. Failures
// from a shard that is down mid-churn are counted, not fatal — a live
// service keeps serving what it can. When campaignClass is set, a
// scripted fault campaign loops forever: each cycle spans four fault
// windows, then Finish() heals and recovers everything before the next
// cycle starts, so the dashboard shows repeated inject→degrade→restore
// arcs.
func (s *server) drive(ctx context.Context, rate int, seed int64, campaignClass string, campaignEvery int) {
	gen := workload.NewGenerator(s.spec, seed)
	interval := time.Second / time.Duration(rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	// Paces request injection on the host clock; the workload itself is
	// seeded and the store's clock is simulated.
	tick := time.NewTicker(interval) //cxl0:hostclock
	defer tick.Stop()

	var eng *faults.Engine
	var sched *faults.Campaign
	horizon, cycle := 0, 0
	if campaignClass != "" {
		// The +1 makes the last window's At index (4×every) land inside
		// the cycle, so all four windows fire before Finish().
		horizon = 4*campaignEvery + 1
		var err error
		sched, err = faults.ForClass(campaignClass, horizon, s.db.NumShards(), campaignEvery)
		if err != nil {
			log.Printf("drive: campaign: %v", err)
			return
		}
		eng = faults.New(s.db, sched)
	}

	for i := 1; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if eng != nil {
			if c := (i - 1) / horizon; c != cycle {
				if err := eng.Finish(); err != nil {
					log.Printf("drive: campaign finish: %v", err)
					s.failed.Add(1)
				}
				eng = faults.New(s.db, sched)
				cycle = c
			}
			if err := eng.Step((i - 1) % horizon); err != nil {
				log.Printf("drive: campaign step: %v", err)
				s.failed.Add(1)
			}
		}
		if i%rebalanceEvery == 0 {
			if _, err := s.db.Rebalance(); err != nil {
				s.failed.Add(1)
			}
		}
		if i%compactEvery == 0 {
			if _, err := s.db.Compact(); err != nil {
				s.failed.Add(1)
			}
		}
		err := gen.Next().Issue(s.db)
		s.ops.Add(1)
		if err == nil {
			continue
		}
		switch faults.DeniedBy(err) {
		case faults.Partial:
			s.partial.Add(1)
		case faults.Unavailable:
			s.unavailable.Add(1)
		default:
			s.failed.Add(1)
		}
	}
}

// shardRow is one per-shard gauge row of the /metrics snapshot.
type shardRow struct {
	Shard     int     `json:"shard"`
	Cluster   int     `json:"cluster"`
	BusyNS    float64 `json:"busy_ns"`
	BusyShare float64 `json:"busy_share"`
	ChurnNS   float64 `json:"churn_ns"`
	Fill      float64 `json:"fill"`
	Live      int     `json:"live"`
	// Acked is the shard's acked-watermark position (log records
	// [0, acked) are acknowledged durable) and InFlight its current
	// commit-pipeline occupancy; see docs/pipeline.md.
	Acked    int `json:"acked"`
	InFlight int `json:"in_flight"`
}

// metricsSnapshot is the /metrics JSON document.
type metricsSnapshot struct {
	Workload  string  `json:"workload"`
	Clusters  int     `json:"clusters"`
	UptimeSec float64 `json:"uptime_sec"`
	Ops       uint64  `json:"ops"`
	Failed    uint64  `json:"failed"`
	SimNS     float64 `json:"sim_ns"`

	// Faults reports the fault-campaign surface: the configured class,
	// the graceful-degradation counters (see docs/faults.md for the
	// taxonomy) and which shards are currently impaired.
	Faults struct {
		Campaign    string `json:"campaign"`
		Unavailable uint64 `json:"unavailable"`
		Partial     uint64 `json:"partial_results"`
		Down        []int  `json:"down"`
		Partitioned []int  `json:"partitioned"`
		Degraded    []int  `json:"degraded"`
	} `json:"faults"`

	// KV is the service's counter block — kv.Counters, under the JSON
	// keys its tags declare — plus the two gauges that do not sum.
	KV struct {
		kv.Counters
		MaxInFlight int `json:"max_in_flight"`
		CacheSize   int `json:"cache_size"`
	} `json:"kv"`

	Shards []shardRow   `json:"shards"`
	Obs    obs.Snapshot `json:"obs"`

	Bus struct {
		Published   uint64 `json:"published"`
		Ring        int    `json:"ring"`
		Subscribers int    `json:"subscribers"`
	} `json:"bus"`
}

func (s *server) snapshot() metricsSnapshot {
	m := s.db.Metrics()
	var doc metricsSnapshot
	doc.Workload = s.spec.Name
	doc.Clusters = s.db.NumClusters()
	doc.UptimeSec = time.Since(s.started).Seconds() //cxl0:hostclock — dashboard uptime
	doc.Ops = s.ops.Load()
	doc.Failed = s.failed.Load()
	doc.SimNS = s.db.NowNS()
	doc.Faults.Campaign = s.campaign
	doc.Faults.Unavailable = s.unavailable.Load()
	doc.Faults.Partial = s.partial.Load()
	doc.Faults.Down = []int{}
	doc.Faults.Partitioned = []int{}
	doc.Faults.Degraded = []int{}
	for _, h := range s.db.Health() {
		if h.Down {
			doc.Faults.Down = append(doc.Faults.Down, h.Shard)
		}
		if h.Partitioned {
			doc.Faults.Partitioned = append(doc.Faults.Partitioned, h.Shard)
		}
		if h.DegradeFactor > 1 {
			doc.Faults.Degraded = append(doc.Faults.Degraded, h.Shard)
		}
	}
	doc.KV.Counters, doc.KV.MaxInFlight, doc.KV.CacheSize = m.Counters, m.MaxInFlight, m.CacheSize
	totalBusy := 0.0
	for _, b := range m.PerShardBusyNS {
		totalBusy += b
	}
	perCluster := s.db.NumShards() / s.db.NumClusters()
	for i, b := range m.PerShardBusyNS {
		row := shardRow{
			Shard: i, Cluster: i / perCluster, BusyNS: b, ChurnNS: m.PerShardChurnNS[i],
			Fill: m.PerShardFill[i], Live: m.PerShardLive[i], Acked: m.PerShardAcked[i], InFlight: m.PerShardInFlight[i],
		}
		if totalBusy > 0 {
			row.BusyShare = b / totalBusy
		}
		doc.Shards = append(doc.Shards, row)
	}
	doc.Obs = s.stats.Snapshot()
	doc.Bus.Published = s.bus.Seq()
	doc.Bus.Ring = s.bus.Size()
	doc.Bus.Subscribers = s.bus.Subscribers()
	return doc
}

func (s *server) metrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.snapshot()); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("metrics: %v", err)
	}
}

// events streams the bus over Server-Sent Events: one frame per event,
// with the bus sequence as the SSE id and the event kind as the SSE
// event name. A comment frame every poll interval keeps idle connections
// alive.
func (s *server) events(w http.ResponseWriter, req *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.bus.Subscribe()
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": cxl0-serve event stream\n\n")
	fl.Flush()
	ctx := req.Context()
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		evs := sub.Next(64, time.Second)
		if len(evs) == 0 {
			if _, err := fmt.Fprintf(w, ": idle\n\n"); err != nil {
				return
			}
			fl.Flush()
			continue
		}
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data); err != nil {
				return
			}
		}
		if d := sub.Dropped(); d > 0 {
			fmt.Fprintf(w, ": dropped %d (slow consumer)\n\n", d)
		}
		fl.Flush()
	}
}

func (s *server) dashboard(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}
