package kv

// Counters are the service's cumulative counters: each only ever grows
// between resets and sums across pooled stores. This struct is their one
// declaration — a Store counts into one value of it, Metrics embeds it,
// a pool.Router sums it with Add, and cxl0-serve's /metrics embeds it
// again, so the JSON tags are the keys /metrics serves. A new counter is
// a field here plus its line in Add (TestCountersDeclaredOnce holds the
// two together).
type Counters struct {
	// Puts, Gets and Deletes count operations served, Gets including each
	// key a MultiGet resolves. Scans, MultiGets and Batches count the legs
	// (fanout.go) of range reads, MultiGets and Applies: one per call on a
	// store, one per cluster a pooled call reaches (for a scan, one the
	// merge took a key from). A leg counts once it has resolved its first
	// key (served, or withheld behind a partition) or written its first
	// record: one denied before that is not counted, one a failure cuts
	// short later is.
	Puts         uint64 `json:"puts"`
	Gets         uint64 `json:"gets"`
	Deletes      uint64 `json:"deletes"`
	Scans        uint64 `json:"scans"`
	ScannedPairs uint64 `json:"scanned_pairs"`
	MultiGets    uint64 `json:"multi_gets"`
	Batches      uint64 `json:"batches"`
	Commits      uint64 `json:"commits"` // commit flushes issued (GPF or ranged batches)
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

// Metrics is a snapshot of a store's (or a pool's) service counters,
// plus the gauges and sample series that do not sum. One routine takes
// every snapshot, MetricsOf, which allocates two objects, or three over
// several stores.
//
// One store's four sample series (RecoveryNS, CompactionNS,
// WriteLatencies, IssueLatencies) are read-only views shared with the
// store, not copies: the store only appends to its logs and ResetMetrics
// starts new ones, so a snapshot's series never change, and appending to
// one copies it. Several stores' are copied once, into one buffer the
// four share. Do not write their elements in place (sort a copy
// instead).
type Metrics struct {
	Counters
	// RecoveryNS are the simulated durations of recoveries, in the order
	// they ran.
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
	// and PerShardLive the number of keys its reads see (index size):
	// under the pipeline, mid-flight, that leaves out a key whose first
	// write is still in flight and keeps one whose delete is; at every
	// drain point it is the live count of the whole log. Both follow
	// PerShardBusyNS's global shard order under a pooled router.
	PerShardFill []float64
	PerShardLive []int
	// WriteLatencies are simulated ack latencies of acknowledged writes
	// (submit to durable-ack, including any commit-pipeline lane wait);
	// IssueLatencies are the same writes' submit-to-return latencies,
	// index for index. Both are store-wide and in ack order, not grouped
	// by shard (a pool.Router concatenates its clusters' series). With
	// the pipeline off they nearly coincide; the gap between their
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

// Metrics returns a snapshot of the store's counters: MetricsOf of the
// store alone.
func (s *Store) Metrics() Metrics { return MetricsOf([]*Store{s}) }

// MetricsOf is the one snapshot routine, of one store or of the clusters
// of a pool: counters summed, per-shard gauges in global shard order
// (store 0's shards, then store 1's, ...), sample series pooled
// store-major, MaxInFlight the deepest pipeline of any store and
// CacheSize the sum over the stores' front-end caches — one cut of the
// stores, like every call over several (fanout.go).
//
// It costs O(shards) and two or three allocations however many writes
// have been acknowledged: the six per-shard gauges are cut from one
// []float64 and one []int; one store's four sample series are capped
// views of its own logs (see Metrics), and several stores' are copied
// once, into one shared []float64. MaxBusyNS is then the pooled service
// makespan (clusters run in parallel like shards do) and MaxMeanBusyRatio
// the placement skew across every shard of every store.
func MetricsOf(stores []*Store) Metrics {
	lockStores(stores)
	defer unlockStores(stores)
	return metricsLocked(stores)
}

// metricsLocked is MetricsOf with every store's lock held.
func metricsLocked(stores []*Store) Metrics {
	var m Metrics
	n := 0
	for _, st := range stores {
		m.Counters.Add(st.ctr)
		m.MaxInFlight = max(m.MaxInFlight, st.maxInFlight)
		if st.cache != nil {
			m.CacheSize += st.cache.lenLocked()
		}
		n += len(st.shards)
	}
	fs, is := make([]float64, 4*n), make([]int, 3*n)
	m.PerShardBusyNS, m.PerShardChurnNS = fs[:n:n], fs[n:2*n:2*n]
	m.PerShardFill = fs[2*n : 3*n : 3*n]
	m.PerShardLive, m.PerShardInFlight, m.PerShardAcked = is[:n:n], is[n:2*n:2*n], is[2*n:]
	i := 0
	for _, st := range stores {
		for _, sh := range st.shards {
			m.PerShardBusyNS[i] = sh.busyNS
			m.PerShardChurnNS[i] = sh.churnNS
			m.PerShardFill[i] = float64(len(sh.log)) / float64(sh.cap)
			m.PerShardLive[i] = sh.view.live()
			m.PerShardInFlight[i] = len(sh.flights)
			m.PerShardAcked[i] = sh.acked
			i++
		}
	}
	if len(stores) == 1 {
		st := stores[0]
		m.RecoveryNS, m.CompactionNS = capped(st.recoveryNS), capped(st.compactionNS)
		m.WriteLatencies, m.IssueLatencies = capped(st.writeLat), capped(st.issueLat)
		return m
	}
	samples := 0
	for _, st := range stores {
		samples += len(st.recoveryNS) + len(st.compactionNS) + len(st.writeLat) + len(st.issueLat)
	}
	buf := make([]float64, 0, samples)
	join := func(series func(*Store) []float64) []float64 {
		from := len(buf)
		for _, st := range stores {
			buf = append(buf, series(st)...)
		}
		if len(buf) == from {
			return nil
		}
		return buf[from:len(buf):len(buf)]
	}
	m.RecoveryNS = join(func(st *Store) []float64 { return st.recoveryNS })
	m.CompactionNS = join(func(st *Store) []float64 { return st.compactionNS })
	m.WriteLatencies = join(func(st *Store) []float64 { return st.writeLat })
	m.IssueLatencies = join(func(st *Store) []float64 { return st.issueLat })
	return m
}

// capped is xs with its capacity cut to its length: the store only
// appends to xs, so the view's elements never change, and a caller's
// append to it copies rather than writing into the store's spare
// capacity.
func capped(xs []float64) []float64 { return xs[:len(xs):len(xs)] }

// ResetMetrics zeroes the counters, busy clocks and latency records while
// keeping the stored data — used to exclude a preload phase from
// measurement.
func (s *Store) ResetMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctr = Counters{}
	s.recoveryNS, s.compactionNS = nil, nil
	s.writeLat, s.issueLat = nil, nil
	s.maxInFlight = 0
	for _, sh := range s.shards {
		sh.resetClocks()
	}
	clear(s.winBase)
	clear(s.bucketWin)
}
