package kv

// Counters are the service's cumulative counters: each only ever grows
// between resets and sums across pooled stores. This struct is their one
// declaration — a Store counts into one value of it, Metrics embeds it,
// a pool.Router sums it with Add, and cxl0-serve's /metrics embeds it
// again, so the JSON tags are the keys /metrics serves. A new counter is
// a field here plus its line in Add (TestCountersDeclaredOnce holds the
// two together).
type Counters struct {
	// Puts, Gets, Deletes and Scans count operations served. Gets counts
	// point lookups, including each key resolved by a MultiGet; Scans
	// counts a store's scan legs (see ScanStores): one per Store.Scan, and
	// one per store a range read over several stores reads — every store
	// on an unlimited read, else those it returns a pair from — so a
	// pooled scan ticks it once per cluster it reads.
	Puts         uint64 `json:"puts"`
	Gets         uint64 `json:"gets"`
	Deletes      uint64 `json:"deletes"`
	Scans        uint64 `json:"scans"`
	ScannedPairs uint64 `json:"scanned_pairs"`
	// MultiGets counts MultiGet calls and Batches counts Apply calls (a
	// Router splitting one client batch across clusters counts one Apply
	// per sub-batch it forwards).
	MultiGets uint64 `json:"multi_gets"`
	Batches   uint64 `json:"batches"`
	Commits   uint64 `json:"commits"` // commit flushes issued (GPF or ranged batches)
	// ScanDiscardedPairs counts pairs a scan loaded and then discarded.
	// It is 0 by construction: every range read, over one store or the
	// clusters of a pool, picks its keys in one merge before it loads a
	// value, and loads only the pairs it returns (see ScanStores). The
	// field stays because readers of the metrics (the repo benchmark's
	// pool.scan_useful_ratio, /metrics) report it.
	ScanDiscardedPairs uint64 `json:"scan_discarded_pairs"`
	// Acked is the cumulative count of client writes acknowledged durable
	// (at return, at a batch commit, via Sync, or by a recovery that
	// salvaged a pending batch). It only ever grows: recovery truncation
	// and bucket migration move log positions around, but an acknowledged
	// write stays acknowledged. Migrated copies are not client writes and
	// are counted in MigratedRecords instead.
	Acked           uint64 `json:"acked"`
	DroppedPending  uint64 `json:"dropped_pending"`
	Recoveries      uint64 `json:"recoveries"`
	Migrations      uint64 `json:"migrations"`       // completed bucket migrations
	MigratedRecords uint64 `json:"migrated_records"` // live records copied by completed migrations
	// Compactions counts committed shard compactions and ReclaimedSlots
	// the log and old-snapshot slots they retired (deleted, overwritten
	// and migrated-away records, plus superseded snapshot entries). Both
	// are cumulative and only ever grow.
	Compactions    uint64 `json:"compactions"`
	ReclaimedSlots uint64 `json:"reclaimed_slots"`
	// PipelinedCommits counts commit flushes issued through the
	// asynchronous pipeline (always 0 at PipelineDepth 1).
	PipelinedCommits uint64 `json:"pipelined_commits"`
	// Read-cache counters (all 0 unless Config.ReadCache > 0; see
	// docs/caching.md). CacheHits and CacheMisses count cache
	// consultations on the served-read path — a hit was answered from the
	// front end's local copy without a simulated Load, so the hit rate is
	// CacheHits/(CacheHits+CacheMisses) over exactly the reads that
	// resolved a value. SpeculativeFills counts prefetcher warm-ups
	// installed ahead of demand and CacheInvalidations the inline
	// coherence snoops by write paths.
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	SpeculativeFills   uint64 `json:"speculative_fills"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
}

// Add sums o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.Puts += o.Puts
	c.Gets += o.Gets
	c.Deletes += o.Deletes
	c.Scans += o.Scans
	c.ScannedPairs += o.ScannedPairs
	c.MultiGets += o.MultiGets
	c.Batches += o.Batches
	c.Commits += o.Commits
	c.ScanDiscardedPairs += o.ScanDiscardedPairs
	c.Acked += o.Acked
	c.DroppedPending += o.DroppedPending
	c.Recoveries += o.Recoveries
	c.Migrations += o.Migrations
	c.MigratedRecords += o.MigratedRecords
	c.Compactions += o.Compactions
	c.ReclaimedSlots += o.ReclaimedSlots
	c.PipelinedCommits += o.PipelinedCommits
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.SpeculativeFills += o.SpeculativeFills
	c.CacheInvalidations += o.CacheInvalidations
}

// Metrics is a snapshot of a store's service counters, plus the gauges
// and sample series that do not sum.
type Metrics struct {
	Counters
	RecoveryNS []float64
	// CompactionNS are the simulated durations of committed compactions
	// (charged to the compacted shard as churn, like recovery time).
	CompactionNS []float64
	// PerShardBusyNS is each shard's accumulated simulated busy time.
	// Shards run on distinct machines, so the service-level makespan under
	// perfect parallelism is the maximum entry. Global operations (GPF)
	// are charged to every shard because a Global Persistent Flush stalls
	// the whole fabric; RangedCommit's ranged flushes involve only the
	// shard's own device and are charged to that shard alone.
	PerShardBusyNS []float64
	// PerShardChurnNS is the part of PerShardBusyNS spent on crash
	// recovery and bucket migration: exogenous one-off costs, excluded
	// from the placement-skew metric (MaxMeanBusyRatio).
	PerShardChurnNS []float64
	// PerShardFill is each shard's log fill fraction at snapshot time
	// (appended records over capacity — live occupancy, not cumulative),
	// and PerShardLive its live record count (index size). Both follow
	// PerShardBusyNS's global shard order under a pooled router.
	PerShardFill []float64
	PerShardLive []int
	// WriteLatencies are simulated ack latencies of acknowledged writes
	// (submit to durable-ack, including any commit-pipeline lane wait);
	// IssueLatencies are the same writes' submit-to-return latencies.
	// With the pipeline off they nearly coincide; the gap between their
	// distributions is exactly what pipelining buys (see docs/pipeline.md).
	WriteLatencies []float64
	IssueLatencies []float64
	// MaxInFlight is the deepest commit-pipeline occupancy any shard
	// reached. PerShardInFlight and PerShardAcked are gauges at snapshot
	// time: each shard's in-flight flush count and its acked-watermark
	// position (log records [0, acked) are acknowledged durable).
	MaxInFlight      int
	PerShardInFlight []int
	PerShardAcked    []int
	// CacheSize is the read cache's entry-count gauge at snapshot time.
	CacheSize int
}

// MaxBusyNS returns the busiest shard's simulated time — the service
// makespan under perfect shard parallelism.
func (m Metrics) MaxBusyNS() float64 {
	max := 0.0
	for _, b := range m.PerShardBusyNS {
		if b > max {
			max = b
		}
	}
	return max
}

// TotalBusyNS returns the summed simulated time across shards (the
// single-machine-equivalent cost).
func (m Metrics) TotalBusyNS() float64 {
	total := 0.0
	for _, b := range m.PerShardBusyNS {
		total += b
	}
	return total
}

// MaxMeanBusyRatio returns the busiest shard's traffic time divided by
// the mean — the placement-skew metric: 1.0 is a perfectly balanced
// service, and the traffic makespan exceeds the ideally parallel one by
// exactly this factor. Churn time (crash recovery, bucket migration) is
// excluded: it is one-off cost unrelated to where traffic is routed, and
// the run's crash schedule would otherwise drown the signal. Returns 0
// when no traffic time has accumulated.
func (m Metrics) MaxMeanBusyRatio() float64 {
	max, total := 0.0, 0.0
	for i, b := range m.PerShardBusyNS {
		if i < len(m.PerShardChurnNS) {
			b -= m.PerShardChurnNS[i]
		}
		total += b
		if b > max {
			max = b
		}
	}
	if total <= 0 {
		return 0
	}
	return max / (total / float64(len(m.PerShardBusyNS)))
}

// Metrics returns a snapshot of the store's counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Counters:     s.ctr,
		RecoveryNS:   append([]float64(nil), s.recoveryNS...),
		CompactionNS: append([]float64(nil), s.compactionNS...),
		MaxInFlight:  s.maxInFlight,
	}
	if s.cache != nil {
		m.CacheSize = s.cache.lenLocked()
	}
	for _, sh := range s.shards {
		m.PerShardBusyNS = append(m.PerShardBusyNS, sh.busyNS)
		m.PerShardChurnNS = append(m.PerShardChurnNS, sh.churnNS)
		m.PerShardFill = append(m.PerShardFill, float64(len(sh.log))/float64(sh.cap))
		m.PerShardLive = append(m.PerShardLive, sh.view.live())
		m.WriteLatencies = append(m.WriteLatencies, sh.writeLat...)
		m.IssueLatencies = append(m.IssueLatencies, sh.issueLat...)
		m.PerShardInFlight = append(m.PerShardInFlight, len(sh.flights))
		m.PerShardAcked = append(m.PerShardAcked, sh.acked)
	}
	return m
}

// ResetMetrics zeroes the counters, busy clocks and latency records while
// keeping the stored data — used to exclude a preload phase from
// measurement.
func (s *Store) ResetMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctr = Counters{}
	s.recoveryNS, s.compactionNS = nil, nil
	s.maxInFlight = 0
	for _, sh := range s.shards {
		sh.resetClocks()
		sh.writeLat = nil
		sh.issueLat = nil
	}
	clear(s.winBase)
	clear(s.bucketWin)
}
