package workload

import (
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/faults"
	"cxl0/internal/kv"
	"cxl0/internal/pool"
)

// Options configures one benchmark run: a workload spec driving one
// service configuration, with an optional crash-churn schedule. The
// runner drives the kv.DB interface only: a single cluster-backed store,
// or — with Clusters > 1 — a pool.Router over several.
type Options struct {
	// Spec is the workload mix.
	Spec Spec
	// Store is the per-cluster store configuration. If Store.Capacity is
	// zero the runner sizes each shard's log to fit the worst case
	// (preload plus every operation being a write).
	Store kv.Config
	// Clusters pools several independent clusters behind a router
	// (0 or 1 = a single cluster; the run then matches the pre-pooling
	// harness bit for bit).
	Clusters int
	// Ops is the number of measured operations (after preload); it must
	// be positive.
	Ops int
	// CrashEvery injects one crash+recover cycle (rotating over shards)
	// every CrashEvery measured operations; 0 disables crash churn. It runs
	// as the "uniform" faults.ForClass campaign, through the same engine as
	// Campaign, but is not one: the result's campaign fields stay empty
	// and a denied operation still fails the run. It cannot be combined
	// with Campaign.
	CrashEvery int
	// Campaign is a scripted fault schedule driven alongside the
	// operation stream (see internal/faults); nil runs fault-free (or
	// with only the uniform CrashEvery churn). Under a campaign,
	// operations denied by an injected fault are tolerated and counted
	// (Result.FailedOps and friends) instead of aborting the run, and
	// the run always ends healthy: remaining events fire, partitions
	// heal and down shards recover — in schedule order — before the
	// final Sync.
	Campaign *faults.Campaign
	// RebalanceEvery calls the store's load-aware rebalancer every
	// RebalanceEvery measured operations; 0 keeps the static shard map.
	RebalanceEvery int
	// CacheSweep marks the run as part of the bench's read-cache on/off
	// sweep: the Result carries the cache counters and the mean served-read
	// latency (the read_cache headline's inputs) on top of the usual
	// fields. The cache itself is configured through Store.ReadCache /
	// Store.Prefetch — a CacheSweep run with Store.ReadCache == 0 is the
	// sweep's cache-off baseline.
	CacheSweep bool
	// Seed drives the operation stream.
	Seed int64
}

// Result is one run's machine-readable outcome. Simulated times come from
// the cluster's latency-model clock, not the host's.
type Result struct {
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	// Shards is the per-cluster shard count and Clusters the pooled
	// cluster count (1 = a single cluster); the service's total shard
	// count is their product.
	Shards   int    `json:"shards"`
	Clusters int    `json:"clusters"`
	Variant  string `json:"variant"`
	Batch    int    `json:"batch,omitempty"`
	Seed     int64  `json:"seed"`
	// Capacity echoes an explicitly constrained per-shard log capacity
	// (0 = the runner's worst-case auto-sizing) and CompactAtFill the
	// auto-compaction threshold, for capacity-pressure rows.
	Capacity      int     `json:"capacity,omitempty"`
	CompactAtFill float64 `json:"compact_at_fill,omitempty"`

	Ops     int `json:"ops"`
	Reads   int `json:"reads"`
	Updates int `json:"updates"`
	Inserts int `json:"inserts"`
	Scans   int `json:"scans"`

	// SimNS is the service makespan: the busiest shard's simulated time
	// (shards run on distinct machines in parallel; global flushes are
	// charged to every shard).
	SimNS float64 `json:"sim_ns"`
	// TotalCostNS is the summed simulated cost across shards — what a
	// single unsharded machine would have paid.
	TotalCostNS float64 `json:"total_cost_ns"`
	// ThroughputOpsPerSec is Ops divided by the simulated makespan.
	ThroughputOpsPerSec float64 `json:"throughput_ops_per_sec"`
	// GoodputOpsPerSec counts only served operations: faults deny
	// operations at zero simulated cost, so under a campaign the plain
	// throughput ratio would reward outages (fewer ops served, same
	// denominator ops count, smaller makespan). Goodput excludes
	// FailedOps and UnavailableOps; it equals ThroughputOpsPerSec on a
	// fault-free run and is the campaign headline's retention metric.
	GoodputOpsPerSec float64 `json:"goodput_ops_per_sec"`

	// Latency percentiles over per-operation ack latencies, in simulated
	// nanoseconds (writes: submit to durable-ack; reads/scans: call
	// duration measured as consumed simulated time). A pooled fan-out
	// read's legs run on independent clusters in parallel, so its sample
	// is the leg makespan — the slowest cluster's clock delta — matching
	// SimNS's parallel accounting. The summed-legs figure (the serial
	// upper bound the pre-fix harness reported as the percentile itself)
	// is kept in the Serial* fields on pooled rows.
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	P99NS float64 `json:"p99_ns"`
	MaxNS float64 `json:"max_ns"`
	// Serial* are the same latency population with each pooled fan-out
	// read sampled as its summed per-cluster cost instead of the leg
	// makespan — what one cluster would have paid serially. Emitted only
	// on pooled rows (Clusters > 1); on a single cluster the two
	// accountings coincide.
	SerialP50NS float64 `json:"serial_p50_ns,omitempty"`
	SerialP95NS float64 `json:"serial_p95_ns,omitempty"`
	SerialP99NS float64 `json:"serial_p99_ns,omitempty"`

	// Load balance. MaxMeanBusy is the busiest shard's busy time over the
	// mean — the skew metric: the makespan exceeds a perfectly balanced
	// service's by this factor. RebalanceEvery echoes the knob (0 =
	// static shard map); Migrations and MigratedRecords count the
	// rebalancer's bucket moves and the live records they copied.
	MaxMeanBusy     float64 `json:"max_mean_busy"`
	RebalanceEvery  int     `json:"rebalance_every"`
	Migrations      int     `json:"migrations"`
	MigratedRecords int     `json:"migrated_records"`

	// Log compaction. Compactions counts committed shard compactions and
	// ReclaimedSlots the dead records they retired; CompactionMeanNS is
	// the mean simulated compaction duration (charged as churn, like
	// recovery time).
	Compactions      int     `json:"compactions"`
	ReclaimedSlots   int     `json:"reclaimed_slots"`
	CompactionMeanNS float64 `json:"compaction_mean_ns,omitempty"`

	// Crash churn.
	Recoveries     int     `json:"recoveries"`
	RecoveryMeanNS float64 `json:"recovery_mean_ns,omitempty"`
	RecoveryMaxNS  float64 `json:"recovery_max_ns,omitempty"`
	RecordsLost    int     `json:"records_lost,omitempty"`
	DroppedPending int     `json:"dropped_pending,omitempty"`

	// Fault campaign. Campaign names the scripted schedule ("" = none;
	// the uniform CrashEvery knob is not a campaign). The fields are
	// always emitted — zero on campaign-free rows — so every row carries
	// the same key set. Under a campaign, operations denied by an
	// injected fault count here instead of aborting the run: FailedOps
	// hit crashed shards (kv.ErrShardDown), UnavailableOps hit
	// partitioned ones (kv.ErrUnavailable), and PartialResults counts
	// fan-out reads that degraded to partial results and still returned
	// the reachable shards' data.
	Campaign       string `json:"campaign"`
	FailedOps      int    `json:"failed_ops"`
	UnavailableOps int    `json:"unavailable_ops"`
	PartialResults int    `json:"partial_results"`
	// Campaign recovery distribution, on the simulated clock: Outage*
	// are crash-to-recovered windows, Recovery* the recovery work
	// itself, PartitionP95NS the partition-to-heal window.
	OutageP50NS    float64 `json:"outage_p50_ns"`
	OutageP95NS    float64 `json:"outage_p95_ns"`
	RecoveryP50NS  float64 `json:"recovery_p50_ns"`
	RecoveryP95NS  float64 `json:"recovery_p95_ns"`
	PartitionP95NS float64 `json:"partition_p95_ns"`

	// Commits is the number of committed batches (batched strategies only).
	Commits uint64 `json:"commits,omitempty"`

	// Commit pipeline (kv.Config.PipelineDepth > 1 under a batched
	// strategy). Every field is omitted at depth 1, so pipeline-off rows
	// keep the pre-pipeline schema byte for byte. The Ack percentiles
	// are acknowledged writes' submit-to-durable-ack latencies
	// (including flush-lane queue wait) and the Issue percentiles the
	// same writes' submit-to-return latencies; the gap between the two
	// distributions is the commit cost the pipeline moved off the
	// client's critical path.
	PipelineDepth int     `json:"pipeline_depth,omitempty"`
	AckP50NS      float64 `json:"ack_p50_ns,omitempty"`
	AckP95NS      float64 `json:"ack_p95_ns,omitempty"`
	AckP99NS      float64 `json:"ack_p99_ns,omitempty"`
	IssueP50NS    float64 `json:"issue_p50_ns,omitempty"`
	IssueP95NS    float64 `json:"issue_p95_ns,omitempty"`
	IssueP99NS    float64 `json:"issue_p99_ns,omitempty"`

	// Read-cache sweep (Options.CacheSweep; see docs/caching.md). Every
	// field is omitted on non-sweep rows, so the pre-cache schema is
	// untouched. CacheSweep marks the row; ReadCache echoes the cache
	// capacity (0 = the sweep's cache-off baseline); CacheHitRate is
	// CacheHits/(CacheHits+CacheMisses) over served reads that resolved a
	// value; ReadMeanNS is the mean served-read latency (point reads and
	// scans) the read_cache headline divides to report the reduction.
	CacheSweep       bool    `json:"cache_sweep,omitempty"`
	ReadCache        int     `json:"read_cache,omitempty"`
	CacheHits        uint64  `json:"cache_hits,omitempty"`
	CacheMisses      uint64  `json:"cache_misses,omitempty"`
	SpeculativeFills uint64  `json:"speculative_fills,omitempty"`
	CacheHitRate     float64 `json:"cache_hit_rate,omitempty"`
	ReadMeanNS       float64 `json:"read_mean_ns,omitempty"`
}

// Run executes one workload against one service configuration, driving
// it purely through the kv.DB interface.
func Run(o Options) (Result, error) {
	if err := o.Spec.Validate(); err != nil {
		return Result{}, err
	}
	if o.Ops <= 0 {
		return Result{}, fmt.Errorf("workload %s: Ops must be positive, got %d", o.Spec.Name, o.Ops)
	}
	if o.CrashEvery > 0 && o.Campaign != nil {
		return Result{}, fmt.Errorf("workload %s: CrashEvery and Campaign %q are exclusive", o.Spec.Name, o.Campaign.Name)
	}
	clusters := o.Clusters
	if clusters < 1 {
		clusters = 1
	}
	cfg := o.Store
	if cfg.Seed == 0 {
		cfg.Seed = o.Seed + 1
	}
	if cfg.Capacity <= 0 {
		// Worst case: every measured op appends one record, all to one
		// shard, on top of the preload; recovery truncation reuses slots,
		// so this bound holds across crash churn too. Rebalancing appends
		// migrated copies and move markers on top — double the log. The
		// bound is per cluster, and pooling only spreads load, so it keeps
		// holding at any cluster count.
		cfg.Capacity = o.Spec.Keys + o.Ops + 8
		if o.RebalanceEvery > 0 {
			cfg.Capacity *= 2
		}
	}
	rt, err := pool.Open(pool.Config{Clusters: clusters, Store: cfg})
	if err != nil {
		return Result{}, err
	}
	var db kv.DB = rt

	// clocks snapshots every pooled cluster's independent simulated clock.
	// Bracketing a read with two snapshots yields both latency accountings
	// at once: the max per-cluster delta is the parallel makespan of a
	// fan-out's legs, the sum the serial upper bound (Router.NowNS deltas
	// report only the sum — the pre-fix figure).
	clocks := func() []float64 {
		out := make([]float64, rt.NumClusters())
		for c := range out {
			out[c] = rt.Cluster(c).NowNS()
		}
		return out
	}

	// Preload the keyspace, then exclude it from measurement.
	for k := 0; k < o.Spec.Keys; k++ {
		if _, err := db.Put(core.Val(k), core.Val(1+k)); err != nil {
			return Result{}, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	if err := db.Sync(); err != nil {
		return Result{}, err
	}
	db.ResetMetrics()

	gen := NewGenerator(o.Spec, o.Seed)
	res := Result{
		Workload: o.Spec.Name,
		Strategy: cfg.Strategy.String(),
		Shards:   db.NumShards() / clusters,
		Clusters: clusters,
		Variant:  cfg.Variant.String(),
		Seed:     o.Seed,
		Ops:      o.Ops,

		RebalanceEvery: o.RebalanceEvery,
	}
	if o.Store.Capacity > 0 {
		res.Capacity = o.Store.Capacity
	}
	res.CompactAtFill = cfg.CompactAtFill
	if cfg.Strategy.Batched() {
		res.Batch = cfg.Batch
		if res.Batch <= 0 {
			res.Batch = kv.DefaultBatch
		}
	}

	var eng *faults.Engine
	switch {
	case o.Campaign != nil:
		eng = faults.New(db, o.Campaign)
	case o.CrashEvery > 0:
		churn, err := faults.ForClass("uniform", o.Ops, db.NumShards(), o.CrashEvery)
		if err != nil {
			return Result{}, err
		}
		eng = faults.New(db, churn)
	}
	var readLat, readLatSerial []float64
	// sampleRead folds one bracketed read into both latency populations.
	sampleRead := func(start, end []float64) {
		makespan, serial := 0.0, 0.0
		for c := range end {
			d := end[c] - start[c]
			serial += d
			if d > makespan {
				makespan = d
			}
		}
		readLat = append(readLat, makespan)
		readLatSerial = append(readLatSerial, serial)
	}
	var n [len(opNames)]int // operations issued, by kind
	for i := 0; i < o.Ops; i++ {
		if eng != nil {
			if err := eng.Step(i); err != nil {
				return Result{}, err
			}
		}
		if o.RebalanceEvery > 0 && i > 0 && i%o.RebalanceEvery == 0 {
			if _, err := db.Rebalance(); err != nil {
				return Result{}, fmt.Errorf("rebalance at op %d: %w", i, err)
			}
		}
		op := gen.Next()
		n[op.Kind]++
		read := op.Kind == OpRead || op.Kind == OpScan
		var start []float64
		if read {
			start = clocks()
		}
		err := op.Issue(db)
		denial := faults.DeniedBy(err)
		if err != nil && (o.Campaign == nil || denial == faults.NotDenied) {
			return Result{}, fmt.Errorf("op %d %v: %w", i, op.Kind, err)
		}
		// Under a campaign, the faults it injected deny operations by
		// design: they count instead of aborting the run.
		switch denial {
		case faults.Partial:
			res.PartialResults++
		case faults.Unavailable:
			res.UnavailableOps++
		case faults.Down:
			res.FailedOps++
		}
		// A denied read costs nothing and has no latency sample, but a
		// scan a partition cut short did real work on the reachable
		// shards: its cost belongs in the latency distribution.
		if read && (err == nil || (op.Kind == OpScan && denial != faults.Down)) {
			sampleRead(start, clocks())
		}
	}
	res.Reads, res.Updates, res.Inserts, res.Scans = n[OpRead], n[OpUpdate], n[OpInsert], n[OpScan]
	if eng != nil {
		if err := eng.Finish(); err != nil {
			return Result{}, err
		}
	}
	if err := db.Sync(); err != nil {
		return Result{}, err
	}

	m := db.Metrics()
	res.SimNS = m.MaxBusyNS()
	res.TotalCostNS = m.TotalBusyNS()
	if res.SimNS > 0 {
		res.ThroughputOpsPerSec = float64(o.Ops) / (res.SimNS * 1e-9)
		res.GoodputOpsPerSec = float64(o.Ops-res.FailedOps-res.UnavailableOps) / (res.SimNS * 1e-9)
	}
	ps := faults.Percentiles([][]float64{readLat, m.WriteLatencies}, 50, 95, 99, 100)
	res.P50NS, res.P95NS, res.P99NS, res.MaxNS = ps[0], ps[1], ps[2], ps[3]
	if clusters > 1 {
		ps = faults.Percentiles([][]float64{readLatSerial, m.WriteLatencies}, 50, 95, 99)
		res.SerialP50NS, res.SerialP95NS, res.SerialP99NS = ps[0], ps[1], ps[2]
	}
	if o.CacheSweep {
		res.CacheSweep = true
		res.ReadCache = cfg.ReadCache
		res.CacheHits = m.CacheHits
		res.CacheMisses = m.CacheMisses
		res.SpeculativeFills = m.SpeculativeFills
		if served := m.CacheHits + m.CacheMisses; served > 0 {
			res.CacheHitRate = float64(m.CacheHits) / float64(served)
		}
		for _, d := range readLat {
			res.ReadMeanNS += d
		}
		if len(readLat) > 0 {
			res.ReadMeanNS /= float64(len(readLat))
		}
	}
	if cfg.Strategy.Batched() && cfg.PipelineDepth > 1 {
		res.PipelineDepth = cfg.PipelineDepth
		ps = faults.Percentiles([][]float64{m.WriteLatencies}, 50, 95, 99)
		res.AckP50NS, res.AckP95NS, res.AckP99NS = ps[0], ps[1], ps[2]
		ps = faults.Percentiles([][]float64{m.IssueLatencies}, 50, 95, 99)
		res.IssueP50NS, res.IssueP95NS, res.IssueP99NS = ps[0], ps[1], ps[2]
	}
	res.Recoveries = int(m.Recoveries)
	res.DroppedPending = int(m.DroppedPending)
	res.Commits = m.Commits
	res.MaxMeanBusy = m.MaxMeanBusyRatio()
	res.Migrations = int(m.Migrations)
	res.MigratedRecords = int(m.MigratedRecords)
	res.Compactions = int(m.Compactions)
	res.ReclaimedSlots = int(m.ReclaimedSlots)
	for _, c := range m.CompactionNS {
		res.CompactionMeanNS += c
	}
	if len(m.CompactionNS) > 0 {
		res.CompactionMeanNS /= float64(len(m.CompactionNS))
	}
	for _, r := range m.RecoveryNS {
		res.RecoveryMeanNS += r
		if r > res.RecoveryMaxNS {
			res.RecoveryMaxNS = r
		}
	}
	if len(m.RecoveryNS) > 0 {
		res.RecoveryMeanNS /= float64(len(m.RecoveryNS))
	}
	var fs faults.Stats
	if eng != nil {
		fs = eng.Stats()
		res.RecordsLost = fs.RecordsLost
	}
	if o.Campaign != nil {
		res.Campaign = fs.Campaign
		ps = faults.Percentiles([][]float64{fs.OutageNS}, 50, 95)
		res.OutageP50NS, res.OutageP95NS = ps[0], ps[1]
		ps = faults.Percentiles([][]float64{fs.RecoveryNS}, 50, 95)
		res.RecoveryP50NS, res.RecoveryP95NS = ps[0], ps[1]
		res.PartitionP95NS = faults.PercentileNS(fs.PartitionNS, 95)
	}
	return res, nil
}
