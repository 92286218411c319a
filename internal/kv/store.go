package kv

import (
	"fmt"
	"sort"
	"sync"

	"cxl0/internal/core"
	"cxl0/internal/memsim"
	"cxl0/internal/obs"
)

// Ack describes the acknowledgment state of a write when it returns.
type Ack struct {
	// Shard is the shard the write was routed to.
	Shard int
	// Seq is the write's slot in the shard's log.
	Seq int
	// Durable says whether the write is already persistent. Under the
	// batched strategies (GroupCommit, RangedCommit) it becomes true only
	// at the batch's commit point.
	Durable bool
}

// Pair is one key-value pair returned by Scan.
type Pair struct {
	Key core.Val `json:"key"`
	Val core.Val `json:"val"`
}

// RecoveryStats reports one shard recovery.
type RecoveryStats struct {
	// Shard is the recovered shard.
	Shard int
	// Recovered is the number of log records that survived (the durable —
	// or still-visible — prefix). Records folded into a snapshot by an
	// earlier compaction are counted in Snapshot, not here.
	Recovered int
	// Snapshot is the number of committed snapshot records the recovery
	// revalidated (0 when the shard never compacted).
	Snapshot int
	// Lost is the number of appended records the crash destroyed.
	Lost int
	// DroppedPending is the number of unacknowledged batched writes
	// discarded by the recovery.
	DroppedPending int
	// SimNS is the simulated time the recovery consumed (scan + log
	// truncation + re-persist).
	SimNS float64
}

// Metrics is a snapshot of a store's service counters.
type Metrics struct {
	// Puts, Gets, Deletes and Scans count operations served. Gets counts
	// point lookups, including each key resolved by a MultiGet.
	Puts, Gets, Deletes, Scans uint64
	ScannedPairs               uint64
	// MultiGets counts MultiGet calls and Batches counts Apply calls (a
	// Router splitting one client batch across clusters counts one Apply
	// per sub-batch it forwards).
	MultiGets, Batches uint64
	Commits            uint64 // commit flushes issued (GPF or ranged batches)
	// ScanDiscardedPairs counts pairs a pooled scan fan-out loaded from
	// clusters and then discarded in the router's merge — always 0 on a
	// single store, where Scan never over-fetches (see pool.Router.Scan).
	ScanDiscardedPairs uint64
	// Acked is the cumulative count of client writes acknowledged durable
	// (at return, at a batch commit, via Sync, or by a recovery that
	// salvaged a pending batch). It only ever grows: recovery truncation
	// and bucket migration move log positions around, but an acknowledged
	// write stays acknowledged. Migrated copies are not client writes and
	// are counted in MigratedRecords instead.
	Acked           uint64
	DroppedPending  uint64
	Recoveries      uint64
	Migrations      uint64 // completed bucket migrations
	MigratedRecords uint64 // live records copied by completed migrations
	// Compactions counts committed shard compactions and ReclaimedSlots
	// the log and old-snapshot slots they retired (deleted, overwritten
	// and migrated-away records, plus superseded snapshot entries). Both
	// are cumulative and only ever grow.
	Compactions    uint64
	ReclaimedSlots uint64
	RecoveryNS     []float64
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
	// PipelinedCommits counts commit flushes issued through the
	// asynchronous pipeline (always 0 at PipelineDepth 1) and
	// MaxInFlight the deepest pipeline occupancy any shard reached.
	// PerShardInFlight and PerShardAcked are gauges at snapshot time:
	// each shard's in-flight flush count and its acked-watermark
	// position (log records [0, acked) are acknowledged durable).
	PipelinedCommits uint64
	MaxInFlight      int
	PerShardInFlight []int
	PerShardAcked    []int
	// Read-cache counters (all 0 unless Config.ReadCache > 0; see
	// docs/caching.md). CacheHits and CacheMisses count cache
	// consultations on the served-read path — a hit was answered from the
	// front end's local copy without a simulated Load, so the hit rate is
	// CacheHits/(CacheHits+CacheMisses) over exactly the reads that
	// resolved a value. SpeculativeFills counts prefetcher warm-ups
	// installed ahead of demand, CacheInvalidations the inline coherence
	// snoops by write paths, and CacheSize is the entry-count gauge at
	// snapshot time.
	CacheHits, CacheMisses uint64
	SpeculativeFills       uint64
	CacheInvalidations     uint64
	CacheSize              int
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

// Store is a sharded durable key-value service over one memsim cluster.
// Methods are safe for concurrent use; operations serialize on the one
// store lock.
type Store struct {
	mu  sync.Mutex
	cfg Config
	// persist is the configured Strategy, resolved (see persist.go): the
	// only form in which it reaches the write, commit and recovery paths.
	persist persister
	cluster *memsim.Cluster
	front   core.MachineID
	shards  []*shard

	// Shard map: keys hash to one of len(shardMap) virtual buckets;
	// shardMap assigns each bucket to a shard. bucketVer is the version of
	// the last migration applied per bucket and moveSeq the last version
	// allocated — recovery uses them to decide whether a durable move-out
	// record in a scanned log is newer than the in-memory map (redo) or
	// already applied.
	shardMap  []int
	bucketVer []uint64
	moveSeq   uint64

	// Rebalance window: winBase snapshots each shard's traffic time
	// (busyNS - churnNS) at the last Rebalance call and bucketWin
	// accumulates per-bucket busy time since, so load decisions track the
	// current traffic mix, not the whole run.
	winBase   []float64
	bucketWin []float64

	puts, gets, deletes, scans uint64
	scannedPairs               uint64
	multiGets, batches         uint64
	commits                    uint64
	pipeCommits                uint64
	maxInFlight                int
	ackedWrites                uint64
	dropped                    uint64
	recoveries                 uint64
	migrations                 uint64
	migratedRecords            uint64
	compactions                uint64
	reclaimedSlots             uint64
	recoveryNS                 []float64
	compactionNS               []float64

	// frontDown is true while the front-end machine is crashed: every
	// client operation enters through the front end, so the whole
	// service surface fails with ErrFrontDown until RecoverFront (see
	// failover.go).
	frontDown bool

	// migrating (resp. compacting) is true while a bucket migration (resp.
	// a log compaction) is writing and flushing its records, so shared
	// flush paths (a fabric-wide flush's cross-charge) can classify their
	// cost as churn.
	migrating  bool
	compacting bool

	// migrateHook and compactHook, when set (tests only), are called at
	// each checkpoint of a bucket migration / shard compaction with the
	// store lock held.
	migrateHook func(step MigrateStep)
	compactHook func(step CompactStep)
	// applyHook, when set (tests only), is called before each batch op of
	// an Apply with the op's index — the fault-campaign property tests
	// inject correlated crashes mid-batch through it.
	applyHook func(i int)

	// cache is the per-front-end volatile read cache (nil unless
	// Config.ReadCache > 0) and pred its speculative prefetcher (nil
	// unless Config.Prefetch); see cache.go, predictor.go and
	// docs/caching.md.
	//cxl0:guarded-by mu
	cache *readCache
	//cxl0:guarded-by mu
	pred *predictor

	// rec, when set (Observe), receives typed events and latency samples
	// for everything the store does. Instrumentation reads the simulated
	// clock but never advances it and never touches the fabric's RNG, so
	// an observed run is bit-identical on the simulated timeline to an
	// unobserved one; with rec nil the hot path pays pointer checks only
	// (obsNow and the nil recorder's no-op methods).
	// obsCommitAcked counts the client acks carried on emitted commit
	// events, so op spans can report exactly the acks not already
	// attributed to a commit event (the ack-agreement invariant).
	rec            *obs.Recorder
	obsCommitAcked uint64
}

// Open builds the cluster (one front-end machine plus one machine per
// shard, all with non-volatile memory) and the shards on it.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	persist, err := persisterFor(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	machines := []memsim.MachineConfig{{Name: "front", Mem: core.NonVolatile, Heap: 0}}
	for i := 0; i < cfg.Shards; i++ {
		machines = append(machines, memsim.MachineConfig{
			Name: fmt.Sprintf("shard%d", i),
			Mem:  core.NonVolatile,
			// Log region, two snapshot regions, two epoch-record slots.
			Heap: 3*cfg.Capacity*recWords + 2*epochWords,
		})
	}
	cluster := memsim.NewCluster(machines, memsim.Config{
		Variant:    cfg.Variant,
		EvictEvery: cfg.EvictEvery,
		Seed:       cfg.Seed,
		Latency:    cfg.Latency,
	})
	var cache *readCache
	var pred *predictor
	if cfg.ReadCache > 0 {
		cache = newReadCache(cfg.ReadCache)
		if cfg.Prefetch {
			pred = newPredictor(cfg.Shards)
		}
	}
	s := &Store{
		cfg:       cfg,
		persist:   persist,
		cluster:   cluster,
		front:     0,
		shardMap:  make([]int, cfg.Buckets),
		bucketVer: make([]uint64, cfg.Buckets),
		bucketWin: make([]float64, cfg.Buckets),
		winBase:   make([]float64, cfg.Shards),
		cache:     cache,
		pred:      pred,
	}
	for b := range s.shardMap {
		s.shardMap[b] = b % cfg.Shards
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:      i,
			machine: core.MachineID(i + 1),
			cap:     cfg.Capacity,
			view:    view{logCap: cfg.Capacity, index: map[core.Val]int{}},
		}
		base, err := cluster.Alloc(sh.machine, cfg.Capacity*recWords)
		if err != nil {
			return nil, err
		}
		sh.base = base
		for r := 0; r < 2; r++ {
			snapBase, err := cluster.Alloc(sh.machine, cfg.Capacity*recWords)
			if err != nil {
				return nil, err
			}
			sh.snapBase[r] = snapBase
		}
		epochBase, err := cluster.Alloc(sh.machine, 2*epochWords)
		if err != nil {
			return nil, err
		}
		sh.epochBase = epochBase
		if err := s.spawnThread(sh); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// spawnThread (re)starts shard sh's worker thread.
func (s *Store) spawnThread(sh *shard) (err error) {
	home := s.front
	if s.cfg.Colocate {
		home = sh.machine
	}
	sh.thread, err = s.cluster.NewThread(home)
	return err
}

// Cluster returns the backing cluster (for churn injection and
// inspection).
func (s *Store) Cluster() *memsim.Cluster { return s.cluster }

// Observe attaches an observability recorder: every operation, commit
// flush, migration step, compaction checkpoint, crash, recovery and
// rebalance decision is published as a typed obs.Event, and op latencies
// feed the recorder's histograms. Pass nil to detach. Observation never
// touches the simulated clock: an observed run's simulated timeline is
// bit-identical to an unobserved one.
func (s *Store) Observe(rec *obs.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
}

// NowNS returns the cluster's simulated clock.
func (s *Store) NowNS() float64 { return s.cluster.NowNS() }

// obsNow is the simulated clock as an observability timestamp: read only
// while a recorder is attached (the read takes the cluster's lock), so
// the unobserved hot path pays one pointer check and hands the nil
// recorder's no-op methods a zero they ignore.
func (s *Store) obsNow() float64 {
	if s.rec == nil {
		return 0
	}
	return s.cluster.NowNS()
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// NumBuckets returns the virtual-bucket count of the shard map.
func (s *Store) NumBuckets() int { return len(s.shardMap) }

// BucketOf returns the virtual bucket key k hashes to. The assignment is
// fixed for a store's lifetime; which shard serves the bucket is not.
func (s *Store) BucketOf(k core.Val) int { return s.bucketOf(k) }

func (s *Store) bucketOf(k core.Val) int {
	return int(hashKey(k) % uint64(len(s.shardMap)))
}

// ShardOf returns the shard index key k currently routes to. It can change
// over the store's lifetime: bucket migration reassigns the key's bucket.
func (s *Store) ShardOf(k core.Val) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardOf(k)
}

func (s *Store) shardOf(k core.Val) int { return s.shardMap[s.bucketOf(k)] }

// ShardOfBucket returns the shard currently serving bucket b.
func (s *Store) ShardOfBucket(b int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardMap[b]
}

// AckedCount returns how many of shard i's log records are acknowledged
// durable.
func (s *Store) AckedCount(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i].acked
}

// AppendedCount returns how many records shard i has appended (acknowledged
// or pending).
func (s *Store) AppendedCount(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards[i].log)
}

// writeLogWords writes the record at slot into shard sh's log with the
// strategy's word write: persistent on return under a per-word strategy,
// otherwise in the worker's cache (visible, not yet durable) until a
// flush over the slot's lines.
func (s *Store) writeLogWords(t *memsim.Thread, sh *shard, slot int, r rec) error {
	return s.writeWords(t, sh,
		[recWords]core.LocID{sh.keyLoc(slot), sh.valLoc(slot), sh.chkLoc(slot)},
		[recWords]core.Val{r.key, r.val, r.chk(slot, sh.epoch)})
}

// writeRecord is the log writer: it makes the record at slot durable
// before returning, or — under a batched strategy — stages it in the
// shard's open batch for the next commit point. The caller has already
// bounds-checked slot.
//
//cxl0:locked mu
func (s *Store) writeRecord(sh *shard, slot int, r rec) error {
	t := sh.thread
	if s.persist.batched {
		if sh.pending == 0 {
			sh.batchE = s.cluster.Epoch(sh.machine)
		}
		if err := s.writeLogWords(t, sh, slot, r); err != nil {
			return err
		}
		sh.pending++
		return nil
	}
	// Store-then-flush has a window in which the owner's crash destroys
	// the stored value and the flush completes vacuously. Records are
	// private until indexed, so the epoch-guarded retry (the flit
	// PrivateStore idiom) is sound — and idempotent for the strategies
	// that have no such window.
	for {
		epoch := s.cluster.Epoch(sh.machine)
		if err := s.writeLogWords(t, sh, slot, r); err != nil {
			return err
		}
		if err := s.flushRange(t, sh, sh.keyLoc(slot), recWords, s.migrating || s.compacting); err != nil {
			return err
		}
		if s.cluster.Epoch(sh.machine) == epoch {
			return nil
		}
	}
}

// flushBatch makes shard sh's open batch (sh.pending > 0) durable — one
// strategy flush over the batch's log lines, with the epoch-guarded
// re-issue — and closes it. It returns the batch as a flight: the flushed
// range and the flush's span on the simulated clock. Acknowledging it is
// the caller's move: in place (commitLocked) or at retirement
// (issueFlight).
//
//cxl0:locked mu
func (s *Store) flushBatch(sh *shard) (flight, error) {
	if err := sh.unavailable(); err != nil {
		return flight{}, err
	}
	t := sh.thread
	first := len(sh.log) - sh.pending
	fstart := s.cluster.NowNS()
	for {
		epoch := s.cluster.Epoch(sh.machine)
		if epoch != sh.batchE {
			// The shard machine crashed and recovered since the batch
			// opened: the staged records may have been destroyed while
			// cached remotely. Records are unacknowledged, so re-issuing
			// them is sound.
			for slot := first; slot < len(sh.log); slot++ {
				if err := s.writeLogWords(t, sh, slot, sh.log[slot]); err != nil {
					return flight{}, err
				}
			}
			sh.batchE = epoch
			continue
		}
		if err := s.flushRange(t, sh, sh.keyLoc(first), sh.pending*recWords, s.migrating || s.compacting); err != nil {
			return flight{}, err
		}
		if s.cluster.Epoch(sh.machine) == epoch {
			break
		}
	}
	now := s.cluster.NowNS()
	// Attribute the flush cost to the committed client records' buckets,
	// evenly — so the rebalancer sees a bucket's true load including its
	// share of commit cost, not just its write path, whether the flush
	// blocks or pipelines. Migration flushes (markers and copies)
	// attribute nothing: their cost is churn.
	clients := 0
	for _, r := range sh.log[first:] {
		if !r.move && !r.copied {
			clients++
		}
	}
	if cost := now - fstart; cost > 0 && clients > 0 {
		per := cost / float64(clients)
		for _, r := range sh.log[first:] {
			if !r.move && !r.copied {
				s.bucketWin[s.bucketOf(r.key)] += per
			}
		}
	}
	sh.pending = 0
	s.commits++
	return flight{first: first, limit: len(sh.log), issueNS: fstart, ackNS: now, depth: 1}, nil
}

// ackRange acknowledges the client writes among shard sh's log slots
// [first, limit), durable since ackNS after waiting queueNS for the
// flush lane, and returns how many there were. It is the one place an
// acknowledgment is recorded — per-record acks, commit points and
// recovery's salvage all pass through it — and the one place the
// acked-watermark's read state catches up, record by record (keyMoved's
// ack step). Move markers and migrated copies are not client writes and
// are skipped.
//
//cxl0:locked mu
func (s *Store) ackRange(sh *shard, first, limit int, ackNS, queueNS float64) int {
	acked := 0
	for slot := first; slot < limit; slot++ {
		r := sh.log[slot]
		if r.move || r.copied {
			continue
		}
		ackLat, issueLat := (ackNS-r.startNS)+queueNS, r.issueNS-r.startNS
		sh.writeLat = append(sh.writeLat, ackLat)
		sh.issueLat = append(sh.issueLat, issueLat)
		s.rec.WriteLatency(ackLat, issueLat)
		s.ackedWrites++
		acked++
		s.keyMoved(sh, r, slot, limit)
	}
	return acked
}

// keyMoved is the one visibility event: the only function in which the
// state reads of a single key are served moves, so the only per-key
// snoop of the front end's cached copy (docs/caching.md). The record r
// at log slot slot was either just appended (acked < 0: the view's write
// step — the tip moves, and under the pipeline reads now serve the key's
// shadow state, which its commit point snoops in turn) or is being
// acknowledged by the watermark advancing to acked (the view's ack step,
// which moves nothing unless the key was shadowed).
//
//cxl0:locked mu
func (s *Store) keyMoved(sh *shard, r rec, slot, acked int) {
	if acked < 0 {
		sh.view.write(r.key, slot, r.val != 0, s.pipelined())
	} else if !sh.view.ack(r.key, slot, r.val != 0, acked) {
		return
	}
	s.cache.invalidateKeyLocked(r.key)
}

// ackFlight is a batch's commit point: the acked-watermark advances to
// the flight's limit, its client writes are acknowledged, and the commit
// event carries exactly those acks.
//
//cxl0:locked mu
func (s *Store) ackFlight(sh *shard, f flight) {
	acked := s.ackRange(sh, f.first, f.limit, f.ackNS, f.queueNS)
	sh.acked = f.limit
	s.obsCommitAcked += uint64(acked)
	s.rec.Commit(sh.id, f.issueNS, f.ackNS, f.limit-f.first, acked, f.depth, f.queueNS)
}

// commitLocked is the in-place commit: it retires every in-flight flight
// (in batch order, stalling the shard as needed), then flushes shard sh's
// open batch and acknowledges it on the spot — the flush cost lands in
// the caller's elapsed span. After a successful return the
// acked-watermark covers the whole log. Bucket migration commits its
// markers and copies through here too (they carry no client acks).
//
//cxl0:locked mu
func (s *Store) commitLocked(sh *shard) error {
	s.drainFlights(sh)
	if sh.pending == 0 {
		return nil
	}
	f, err := s.flushBatch(sh)
	if err != nil {
		return err
	}
	s.ackFlight(sh, f)
	// The watermark caught up with the log tip; no read needs shadow
	// state anymore.
	sh.view.caughtUp()
	return nil
}

// append routes one write (val 0 = tombstone) to shard sh.
//
//cxl0:locked mu
func (s *Store) append(sh *shard, key, val core.Val) (Ack, error) {
	if s.frontDown {
		return Ack{}, ErrFrontDown
	}
	if err := sh.unavailable(); err != nil {
		return Ack{}, err
	}
	// Count past the denial checks: Metrics.Puts/Deletes count operations
	// served, and a write denied above was never served.
	if val == 0 {
		s.deletes++
	} else {
		s.puts++
	}
	s.retireReady(sh)
	// Auto-compaction runs before this append's span stamp: compactLocked
	// charges its own time as churn, and charging it inside the append's
	// elapsed span too would double-count it as traffic — including when
	// the append is one record of an Apply batch (see TestAutoCompact
	// MidBatchAccounting).
	if s.cfg.CompactAtFill > 0 && len(sh.log) >= s.compactThreshold(sh.cap) {
		if _, err := s.compactLocked(sh); err != nil {
			return Ack{}, err
		}
	}
	if len(sh.log) >= sh.cap {
		return Ack{}, &ShardFullError{Shard: sh.id, Appended: len(sh.log), Capacity: sh.cap, Need: 1}
	}
	slot := len(sh.log)
	start := s.cluster.NowNS()
	r := rec{key: key, val: val, startNS: start}
	if err := s.writeRecord(sh, slot, r); err != nil {
		return Ack{}, err
	}
	r.issueNS = s.cluster.NowNS()
	sh.log = append(sh.log, r)
	s.keyMoved(sh, r, slot, -1)
	// The write path's cost is this key's bucket's load; a batch commit
	// triggered below is shared cost, attributed to the whole batch's
	// buckets by flushBatch.
	s.bucketWin[s.bucketOf(key)] += s.cluster.NowNS() - start
	durable := !s.persist.batched
	if durable {
		sh.acked = len(sh.log)
		s.ackRange(sh, slot, slot+1, s.cluster.NowNS(), 0)
	} else if sh.pending >= s.cfg.Batch {
		if s.pipelined() {
			// The pipelined commit point: close the append's span first
			// (the flush must not land on the busy clock), then issue
			// the batch as an in-flight flight. The filling write
			// returns unacknowledged — its ack fires at retirement.
			sh.busyNS += s.cluster.NowNS() - start
			if err := s.issueFlight(sh); err != nil {
				return Ack{}, err
			}
			return Ack{Shard: sh.id, Seq: slot, Durable: false}, nil
		}
		if err := s.commitLocked(sh); err != nil {
			return Ack{}, err
		}
		durable = true
	}
	sh.busyNS += s.cluster.NowNS() - start
	return Ack{Shard: sh.id, Seq: slot, Durable: durable}, nil
}

// Put maps key to val (val >= 1). The write is acknowledged durable per
// the strategy's ack discipline (see Ack.Durable).
func (s *Store) Put(key, val core.Val) (Ack, error) {
	if key < 0 || val < 1 {
		return Ack{}, ErrBadKey
	}
	return s.writeOp(obs.OpPut, key, val)
}

// writeOp is the body Put and Delete (val 0, the tombstone) share: one
// append under the store lock, inside an op span when observed.
func (s *Store) writeOp(op obs.Op, key, val core.Val) (Ack, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[s.shardOf(key)]
	start := s.obsNow()
	ackedW, commitW := s.ackedWrites, s.obsCommitAcked
	ack, err := s.append(sh, key, val)
	s.rec.OpSpan(op, sh.id, start, s.obsNow(),
		1, s.spanAcked(ackedW, commitW), ack.Durable)
	return ack, err
}

// spanAcked returns the client acks an op span should carry: the acks
// accumulated since the captured counters, minus those already carried
// on commit events emitted within the op. Per-operation strategies ack
// on the span; batched strategies route every ack through commit events
// (including batch-full commits an append triggers mid-op), so summing
// Acked over a store's op-span, commit and recover events always equals
// Metrics.Acked.
func (s *Store) spanAcked(ackedBefore, commitBefore uint64) int {
	return int(s.ackedWrites-ackedBefore) - int(s.obsCommitAcked-commitBefore)
}

// Delete removes key by appending a tombstone record.
func (s *Store) Delete(key core.Val) (Ack, error) {
	if key < 0 {
		return Ack{}, ErrBadKey
	}
	return s.writeOp(obs.OpDelete, key, 0)
}

// Get returns the value mapped to key. The index probe is free (a
// volatile DRAM hashtable); the value load pays the simulated cost of
// reading the shard's memory.
func (s *Store) Get(key core.Val) (core.Val, bool, error) {
	if key < 0 {
		return 0, false, ErrBadKey
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	shard := s.shardOf(key)
	start := s.obsNow()
	v, ok, err := s.getLocked(key)
	n := 0
	if ok {
		n = 1
	}
	s.rec.OpSpan(obs.OpGet, shard, start, s.obsNow(), n, 0, false)
	return v, ok, err
}

// getLocked serves one point lookup with the store lock held — the path
// Get and MultiGet share.
func (s *Store) getLocked(key core.Val) (core.Val, bool, error) {
	sh := s.shards[s.shardOf(key)]
	if s.frontDown {
		return 0, false, ErrFrontDown
	}
	if err := sh.unavailable(); err != nil {
		return 0, false, err
	}
	// Count past the denial checks: Metrics.Gets counts operations
	// served, and a denied read must neither count nor dilute the cache
	// hit rate's denominator.
	s.gets++
	s.retireReady(sh)
	slot, ok := sh.view.visible(key)
	if !ok {
		return 0, false, nil
	}
	v, err := s.readValue(sh, key, slot)
	if err != nil {
		return 0, false, err
	}
	s.observeReadLocked(sh, key)
	return v, true, nil
}

// readValue is the one demand-read path: it serves key, whose visible
// state is the record at encoded slot on shard sh, from the front end's
// cached copy when there is one and from the shard's memory otherwise.
// A hit costs no simulated Load and no shard busy time — the read never
// reached the fabric, and the copy is coherent by construction (every
// move of the key's visible state snooped it; see cache.go), so it
// equals what the Load would return. A miss pays the Load, charged to
// the shard's busy clock and the key's bucket, and fills the cache.
//
//cxl0:locked mu
func (s *Store) readValue(sh *shard, key core.Val, slot int) (core.Val, error) {
	if s.cache != nil {
		if v, hit := s.cache.lookupLocked(key); hit {
			s.rec.CacheHit(sh.id, s.obsNow())
			return v, nil
		}
	}
	start := s.cluster.NowNS()
	v, err := sh.thread.Load(sh.valLocOf(slot))
	end := s.cluster.NowNS()
	span := end - start
	sh.busyNS += span
	s.bucketWin[s.bucketOf(key)] += span
	if err != nil {
		return 0, err
	}
	if s.cache != nil {
		s.cache.fillLocked(key, v, false)
		s.rec.CacheMiss(sh.id, end)
	}
	return v, nil
}

// MultiGet resolves a set of keys under one lock acquisition, returning
// one Lookup per key in input order. Each key pays the same simulated
// read cost as a Get; the amortization is the routing (one traversal of
// the service instead of one call per key). A key routed to a down shard
// fails the whole call, like Get. Keys routed to a *partitioned* shard
// degrade gracefully instead: their lookups come back Found == false and
// the call returns the other keys' results together with a
// *PartialResultError naming the unreachable shards.
func (s *Store) MultiGet(keys []core.Val) ([]Lookup, error) {
	for _, k := range keys {
		if k < 0 {
			return nil, ErrBadKey
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frontDown {
		return nil, ErrFrontDown
	}
	// Served-only counting, like getLocked: a denied MultiGet never ran.
	s.multiGets++
	start := s.obsNow()
	out := make([]Lookup, 0, len(keys))
	unavailable := make([]bool, len(s.shards))
	missing := 0
	for _, k := range keys {
		if sh := s.shards[s.shardOf(k)]; sh.partitioned && !sh.down {
			// Not counted in Gets: the placeholder lookup was denied by
			// the partition, not served.
			unavailable[sh.id] = true
			missing++
			out = append(out, Lookup{Key: k})
			continue
		}
		v, ok, err := s.getLocked(k)
		if err != nil {
			return nil, err
		}
		out = append(out, Lookup{Key: k, Val: v, Found: ok})
	}
	s.rec.OpSpan(obs.OpMultiGet, -1, start, s.obsNow(), len(out)-missing, 0, false)
	if missing > 0 {
		return out, &PartialResultError{Op: "multiget", Unavailable: shardList(unavailable), Missing: missing}
	}
	return out, nil
}

// shardList converts a membership mask into the ascending index list a
// PartialResultError carries.
func shardList(mask []bool) []int {
	var out []int
	for i, hit := range mask {
		if hit {
			out = append(out, i)
		}
	}
	return out
}

// Apply applies the batch's puts and deletes in order, then commits every
// shard the batch touched, acknowledging the whole batch with one Ack at
// that commit point: on success every record is durable (Ack.Durable ==
// true) regardless of strategy. Under GroupCommit/RangedCommit the client
// batch becomes the commit unit — one flush per touched shard — instead
// of acking at Config.Batch boundaries; under the per-operation
// strategies every record was durable as it was written and the trailing
// commit is a no-op. Apply is not a transaction: on error a prefix of the
// batch may already be applied. Ack.Shard/Seq identify the batch's last
// appended record.
func (s *Store) Apply(b *Batch) (Ack, error) {
	if b == nil || b.Len() == 0 {
		return Ack{Shard: -1, Seq: -1, Durable: true}, nil
	}
	for _, op := range b.ops {
		if op.Key < 0 || (!op.IsDelete() && op.Val < 1) {
			return Ack{}, ErrBadKey
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.obsNow()
	ackedW, commitW := s.ackedWrites, s.obsCommitAcked
	ack, err := s.applyLocked(b)
	s.rec.OpSpan(obs.OpApply, -1, start, s.obsNow(),
		b.Len(), s.spanAcked(ackedW, commitW), ack.Durable)
	return ack, err
}

// applyLocked is Apply's body with the store lock held and the batch
// validated.
func (s *Store) applyLocked(b *Batch) (Ack, error) {
	if s.frontDown {
		return Ack{}, ErrFrontDown
	}
	// Served-only counting, like getLocked: a denied Apply never ran.
	s.batches++
	touched := make([]bool, len(s.shards))
	var last Ack
	for bi, op := range b.ops {
		if s.applyHook != nil {
			s.applyHook(bi)
		}
		val := op.Val
		if op.IsDelete() {
			val = 0 // the tombstone value
		}
		sh := s.shards[s.shardOf(op.Key)]
		ack, err := s.append(sh, op.Key, val)
		if err != nil {
			return Ack{}, err
		}
		touched[sh.id] = true
		last = ack
	}
	// The batch's commit point: flush every touched shard's open batch
	// (which may also cover earlier writes pending on those shards — a
	// commit always acknowledges everything up to it).
	for id, hit := range touched {
		if !hit {
			continue
		}
		sh := s.shards[id]
		start := s.cluster.NowNS()
		err := s.commitLocked(sh)
		sh.busyNS += s.cluster.NowNS() - start
		if err != nil {
			return Ack{}, err
		}
	}
	return Ack{Shard: last.Shard, Seq: last.Seq, Durable: true}, nil
}

// Scan returns up to limit live pairs with lo <= key < hi, in key order,
// loading each value from its shard.
func (s *Store) Scan(lo, hi core.Val, limit int) ([]Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frontDown {
		return nil, ErrFrontDown
	}
	// Served-only counting, like getLocked: a denied Scan never ran.
	s.scans++
	sstart := s.obsNow()
	type cand struct {
		key  core.Val
		slot int
		sh   *shard
	}
	var cands []cand
	unavailable := make([]bool, len(s.shards))
	missing := 0
	for _, sh := range s.shards {
		if !sh.partitioned {
			s.retireReady(sh)
		}
		for k, slot := range sh.view.inRange(lo, hi) {
			// A down shard only fails the scan when it actually holds
			// keys in range; an idle down shard costs nothing. A
			// partitioned shard degrades the scan to a partial result
			// instead: its data is intact behind the partition, so
			// skipping it is safe and the typed error says what is
			// missing.
			if sh.down {
				return nil, ErrShardDown
			}
			if sh.partitioned {
				unavailable[sh.id] = true
				missing++
				continue
			}
			cands = append(cands, cand{key: k, slot: slot, sh: sh})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].key < cands[j].key })
	if limit > 0 && len(cands) > limit {
		cands = cands[:limit]
	}
	out := make([]Pair, 0, len(cands))
	for _, c := range cands {
		v, err := s.readValue(c.sh, c.key, c.slot)
		if err != nil {
			return nil, err
		}
		out = append(out, Pair{Key: c.key, Val: v})
	}
	if s.pred != nil && len(out) > 0 {
		// Scan-run prefetch: warm the keys just past the scanned range
		// ahead of a continuing sweep (workload E's scans walk forward).
		last := out[len(out)-1].Key
		ahead := make([]core.Val, 0, scanRunAhead)
		for i := core.Val(1); i <= scanRunAhead; i++ {
			ahead = append(ahead, last+i)
		}
		s.prefetchLocked(ahead)
	}
	s.scannedPairs += uint64(len(out))
	s.rec.OpSpan(obs.OpScan, -1, sstart, s.obsNow(), len(out), 0, false)
	if missing > 0 {
		return out, &PartialResultError{Op: "scan", Unavailable: shardList(unavailable), Missing: missing}
	}
	return out, nil
}

// Sync commits every shard's open batch (GroupCommit or RangedCommit). A
// no-op under the per-operation strategies.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frontDown {
		return ErrFrontDown
	}
	for _, sh := range s.shards {
		if sh.pending == 0 && len(sh.flights) == 0 {
			continue
		}
		start := s.cluster.NowNS()
		err := s.commitLocked(sh)
		sh.busyNS += s.cluster.NowNS() - start
		if err != nil {
			return err
		}
	}
	return nil
}

// Crash fails shard i's machine. Operations routed to the shard return
// ErrShardDown until Recover.
func (s *Store) Crash(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashLocked(i)
}

// crashLocked is Crash without the lock — shared with the migration test
// hook, which runs while the store lock is already held.
func (s *Store) crashLocked(i int) {
	sh := s.shards[i]
	s.cluster.Crash(sh.machine)
	sh.down = true
	sh.foldFlights()
	// Reads may have cached visible-but-unacknowledged values this crash
	// just destroyed; recovery decides what survives, so the front end's
	// copies of the shard's keys go now.
	s.invalidateShardLocked(i)
	s.rec.Crash(i, s.cluster.NowNS())
}

// Partition cuts shard i's machine off the fabric. Operations routed to
// the shard return ErrUnavailable (fan-out reads degrade to partial
// results) until Heal; under the GPF-based strategies no shard of this
// store can commit meanwhile, because a global flush must drain the
// partitioned machine's cache too. Nothing is lost — caches, memory and
// the log stay intact, so Heal restores service without recovery.
func (s *Store) Partition(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[i]
	sh.partitioned = true
	s.cluster.Partition(sh.machine)
	// A partitioned owner cannot snoop the front end's copies, so the
	// front end drops them instead of holding lines the fabric cannot
	// revoke (see docs/caching.md).
	s.invalidateShardLocked(i)
	s.rec.Partition(i, s.cluster.NowNS())
}

// Heal reconnects shard i to the fabric, restoring service immediately.
// A no-op for a shard that is not partitioned.
func (s *Store) Heal(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[i]
	if !sh.partitioned {
		return
	}
	sh.partitioned = false
	s.cluster.Heal(sh.machine)
	// Conservative partition-transition invalidation, mirroring
	// Partition's: service resumes from the authoritative medium, not
	// from copies cached across the outage.
	s.invalidateShardLocked(i)
	s.rec.Heal(i, s.cluster.NowNS())
}

// Degrade sets shard i's device latency multiplier: every operation
// served by the shard's memory charges factor× the modeled cost (factor
// 1 restores full speed; below 1 clamps to 1). Pure cost, no semantic
// effect — the shard keeps serving, just slower, and its busy time grows
// accordingly.
func (s *Store) Degrade(i int, factor float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[i]
	s.cluster.Degrade(sh.machine, factor)
	if factor < 1 {
		factor = 1
	}
	s.rec.Degrade(i, factor, s.cluster.NowNS())
}

// Health reports each shard's fault state in shard order.
func (s *Store) Health() []ShardHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardHealth, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardHealth{
			Shard:         i,
			Down:          sh.down,
			Partitioned:   sh.partitioned,
			DegradeFactor: s.cluster.DegradeFactor(sh.machine),
		}
	}
	return out
}

// Recover restarts shard i after a crash: it resolves the shard's
// snapshot-epoch record (the compaction commit record — MStored, so its
// two slots are unconditionally durable and the valid one with the
// highest epoch is authoritative), revalidates the committed snapshot,
// scans the shard's log tail from the surviving state, truncates at the
// first incompletely persisted record, rebuilds the volatile index from
// snapshot plus scan, drops any unacknowledged batched writes, and
// re-persists the recovered log prefix — with one GPF, or under
// RangedCommit with one ranged flush over the shard's own recovered log
// lines, so even recovery stays off the rest of the fabric. Bucket-
// migration markers found in the log drive the wipe, redo and ownership
// rules that keep the shard map crash-consistent (see migrate.go and
// docs/rebalancing.md).
func (s *Store) Recover(i int) (RecoveryStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frontDown {
		// Non-colocated workers are homed on the front end; nothing can
		// run until it is back. RecoverFront recovers every shard's state
		// itself.
		return RecoveryStats{}, fmt.Errorf("%w: recover shard %d via RecoverFront", ErrFrontDown, i)
	}
	sh := s.shards[i]
	if !sh.down {
		return RecoveryStats{Shard: i}, nil
	}
	if sh.partitioned {
		return RecoveryStats{}, fmt.Errorf("%w: shard %d cannot recover while partitioned; heal first", ErrUnavailable, i)
	}
	s.cluster.Recover(sh.machine)
	if err := s.spawnThread(sh); err != nil {
		return RecoveryStats{}, err
	}
	stats, err := s.recoverShard(sh)
	if err != nil {
		return RecoveryStats{}, err
	}
	sh.down = false
	return stats, nil
}

// recoverShard is the recovery core shared by Recover (a crashed shard
// machine, freshly restarted) and RecoverFront (a crashed front-end
// machine whose cache held the shards' open batches — see failover.go):
// resolve the epoch record, revalidate the snapshot, scan the log,
// truncate, re-persist, rebuild the index, redo lost migration flips and
// salvage the durable pending tail. The caller has already restarted
// whatever machine crashed and respawned the shard's workers; clearing
// sh.down (when set) is also the caller's job.
//
//cxl0:locked mu
func (s *Store) recoverShard(sh *shard) (RecoveryStats, error) {
	i := sh.id
	t := sh.thread
	appended := len(sh.log)
	ackedBefore := sh.acked
	start := s.cluster.NowNS()

	// Resolve the snapshot-epoch record from the medium. It was MStored —
	// persistent the moment it was written — so it must agree with the
	// front-end's committed view; any divergence means the compaction
	// commit record was lost, which no crash can cause.
	epoch, snapLen, err := s.readEpochRecord(sh, t)
	if err != nil {
		return RecoveryStats{}, err
	}
	if epoch != sh.epoch || snapLen != len(sh.snap) {
		return RecoveryStats{}, fmt.Errorf(
			"%w: shard %d snapshot-epoch record reads (epoch %d, %d records), committed state is (epoch %d, %d records)",
			ErrDurabilityViolation, i, epoch, snapLen, sh.epoch, len(sh.snap))
	}

	// Revalidate the committed snapshot: every record was durable at the
	// epoch commit, so all snapLen of them must validate in the snapshot
	// domain under the committed epoch.
	snapScanned := make([]rec, 0, snapLen)
	for slot := 0; slot < snapLen; slot++ {
		k, err := t.Load(sh.snapKeyLoc(epoch, slot))
		if err != nil {
			return RecoveryStats{}, err
		}
		v, err := t.Load(sh.snapValLoc(epoch, slot))
		if err != nil {
			return RecoveryStats{}, err
		}
		chk, err := t.Load(sh.snapChkLoc(epoch, slot))
		if err != nil {
			return RecoveryStats{}, err
		}
		if chk != snapChkOf(slot, k, v, epoch) {
			return RecoveryStats{}, fmt.Errorf(
				"%w: shard %d snapshot record %d of %d (epoch %d) failed validation",
				ErrDurabilityViolation, i, slot, snapLen, epoch)
		}
		snapScanned = append(snapScanned, rec{key: k, val: v})
	}

	// Scan: accept log records until the first one whose checksum does not
	// match its content in either domain (client records validate under
	// chkOf, move markers under moveChkOf) for the committed epoch — a
	// pre-compaction leftover carries an older epoch's checksum and cuts
	// the scan exactly where the reclaimed log ends. Acknowledged records
	// are all durable, so the cut can only fall in the unacknowledged
	// tail.
	cut := 0
	scanned := make([]rec, 0, appended)
scan:
	for slot := 0; slot < appended; slot++ {
		k, err := t.Load(sh.keyLoc(slot))
		if err != nil {
			return RecoveryStats{}, err
		}
		v, err := t.Load(sh.valLoc(slot))
		if err != nil {
			return RecoveryStats{}, err
		}
		chk, err := t.Load(sh.chkLoc(slot))
		if err != nil {
			return RecoveryStats{}, err
		}
		r := rec{key: k, val: v}
		switch chk {
		case chkOf(slot, k, v, epoch):
		case moveChkOf(slot, k, v, epoch):
			r.move = true
		default:
			break scan
		}
		scanned = append(scanned, r)
		cut = slot + 1
	}

	// A cut inside the acknowledged prefix means an acknowledged — and
	// therefore durable — record failed to validate. No crash can cause
	// that while the strategies keep their contract, so it is reported as
	// a durability violation rather than silently truncated away.
	if cut < ackedBefore {
		return RecoveryStats{}, fmt.Errorf(
			"%w: shard %d validated only %d of %d acknowledged records",
			ErrDurabilityViolation, i, cut, ackedBefore)
	}

	// Truncate: invalidate the checksum words of the lost tail so a
	// half-persisted old record can never validate once its slot is
	// reused in a later incarnation.
	for slot := cut; slot < appended; slot++ {
		if err := t.MStore(sh.chkLoc(slot), 0); err != nil {
			return RecoveryStats{}, err
		}
	}

	// Re-persist: the scan may have read records that survived only in a
	// surviving machine's cache, and one flush makes the recovered prefix
	// durable again so it also survives the next crash. Only the slots
	// beyond the acknowledged prefix can need this: acknowledged records
	// were already persistent before the crash and are never overwritten
	// in place, so when the cut equals the acked prefix (always, under
	// the per-operation strategies) there is nothing to re-persist. The
	// truncated tail's checksums were MStored, which is persistent by
	// itself. The flush has the strategy's scope: under RangedCommit a
	// ranged one over exactly the shard's own unacknowledged survivors,
	// under the GPF strategies the fabric-wide GPF, and nothing under a
	// per-word strategy, whose surviving records (a crashed migration's
	// copies) were each persistent when their write returned.
	if cut > ackedBefore {
		if err := s.flushRange(t, sh, sh.keyLoc(ackedBefore), (cut-ackedBefore)*recWords, true); err != nil {
			return RecoveryStats{}, err
		}
	}

	// Classify orphaned move-out markers before rebuilding anything: a
	// client record of the marker's bucket *after* the marker proves this
	// shard kept serving the bucket — the migration failed in phase 2
	// with its commit record durable but the map never flipped, and
	// writes acknowledged since supersede the destination's (now stale)
	// copies. Such a marker has no authority at all: it must neither
	// wipe this log's earlier bucket records during the index rebuild
	// (they are still the live state) nor redo the flip (that would
	// resurrect the stale copies over acknowledged data). In the genuine
	// lost-flip case nothing can follow the marker: the migration holds
	// the store lock from commit point to flip.
	superseded := make([]bool, len(scanned))
	for idx, r := range scanned {
		if !r.move {
			continue
		}
		ver, out, _ := decodeMove(r.val, len(s.shards))
		if ver > s.moveSeq {
			// Redundant today — every scanned marker was written by this
			// Store instance under the lock, so ver <= moveSeq always —
			// but a future front-end-restart path (ROADMAP) that rebuilds
			// the map from shard logs must treat every logged version as
			// spent, and this loop is where that contract lives.
			s.moveSeq = ver
		}
		if !out {
			continue
		}
		b := int(r.key)
		for _, later := range scanned[idx+1:] {
			if !later.move && s.bucketOf(later.key) == b {
				superseded[idx] = true
				break
			}
		}
	}

	// Rebuild the index from what the scans actually read: the snapshot's
	// records first (they predate every log record — compaction folded
	// them before the reclaimed log restarted), then the log replay under
	// the move-marker wipe rule (see view.replay); superseded markers are
	// inert. A marker's wipe covers the snapshot-derived entries of its
	// bucket too, exactly as it covers earlier log records.
	sh.view.reset(snapScanned)
	sh.snap = snapScanned
	for slot, r := range scanned {
		if !superseded[slot] {
			sh.view.replay(slot, r, s.bucketOf, -1)
		}
	}

	// Redo: a durable move-out record is a migration's commit point. One
	// newer than the applied map state means the flip was lost between
	// the commit point and the in-memory map update; complete it now so
	// ownership is resolved from the log, deterministically.
	for idx, r := range scanned {
		if !r.move || superseded[idx] {
			continue
		}
		b := int(r.key)
		ver, out, to := decodeMove(r.val, len(s.shards))
		if !out || ver <= s.bucketVer[b] {
			continue
		}
		// The destination is reindexed even when it is down: the copies
		// the flip lands on are durable (committed before the move-out),
		// so these mirror-derived entries are exactly what its own Recover
		// will rebuild — and until then they let Scan see that a down
		// shard holds keys in range instead of silently omitting them.
		s.flipBucket(b, to, ver)
	}

	// Ownership sweep: drop index entries for buckets this shard no
	// longer serves — records that migrated away, and orphaned copies an
	// aborted inbound migration left in the log.
	sh.view.drop(func(k core.Val) bool { return s.shardOf(k) != sh.id })

	// Pending batched records occupy the log's tail; the client writes
	// among those the scan reached were recovered (and are durable after
	// the flush above), so they count as acknowledged — at a submit-to-
	// durable latency spanning the crash. Everything beyond the cut is
	// discarded; the durability check above already guaranteed the cut is
	// at or past the acknowledged prefix, so the lost records are exactly
	// the unacknowledged tail.
	salvaged := s.ackRange(sh, appended-sh.pending, cut, s.cluster.NowNS(), 0)
	droppedPending := 0
	for slot := cut; slot < appended; slot++ {
		// Lost migration markers and copies are not client writes; only
		// dropped client records count, mirroring the salvage above.
		if r := sh.log[slot]; !r.move && !r.copied {
			droppedPending++
		}
	}
	sh.log = sh.log[:cut]
	for slot := range sh.log {
		sh.log[slot].key = scanned[slot].key
		sh.log[slot].val = scanned[slot].val
	}
	sh.acked = cut
	sh.pending = 0

	// Recovery truncated the unacknowledged tail and rebuilt the shard's
	// visible state; any copy cached from the pre-crash state is suspect.
	// (crashLocked already snooped the shard's keys, but recoverShard also
	// runs crash-free via RecoverFront, and a migration redo above may
	// have flipped buckets — sweep again.)
	s.invalidateShardLocked(i)

	simNS := s.cluster.NowNS() - start
	sh.busyNS += simNS
	sh.churnNS += simNS
	s.dropped += uint64(droppedPending)
	s.recoveries++
	s.recoveryNS = append(s.recoveryNS, simNS)
	s.rec.Recover(i, start, s.cluster.NowNS(), cut, salvaged, appended-cut)
	return RecoveryStats{
		Shard:          i,
		Recovered:      cut,
		Snapshot:       snapLen,
		Lost:           appended - cut,
		DroppedPending: droppedPending,
		SimNS:          simNS,
	}, nil
}

// Metrics returns a snapshot of the store's counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Puts:            s.puts,
		Gets:            s.gets,
		Deletes:         s.deletes,
		Scans:           s.scans,
		ScannedPairs:    s.scannedPairs,
		MultiGets:       s.multiGets,
		Batches:         s.batches,
		Commits:         s.commits,
		Acked:           s.ackedWrites,
		DroppedPending:  s.dropped,
		Recoveries:      s.recoveries,
		Migrations:      s.migrations,
		MigratedRecords: s.migratedRecords,
		Compactions:     s.compactions,
		ReclaimedSlots:  s.reclaimedSlots,
		RecoveryNS:      append([]float64(nil), s.recoveryNS...),
		CompactionNS:    append([]float64(nil), s.compactionNS...),
	}
	m.PipelinedCommits = s.pipeCommits
	m.MaxInFlight = s.maxInFlight
	if s.cache != nil {
		m.CacheHits = s.cache.hits
		m.CacheMisses = s.cache.misses
		m.SpeculativeFills = s.cache.specFills
		m.CacheInvalidations = s.cache.invalidations
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
	s.puts, s.gets, s.deletes, s.scans = 0, 0, 0, 0
	s.multiGets, s.batches = 0, 0
	s.scannedPairs, s.commits, s.dropped, s.recoveries = 0, 0, 0, 0
	s.ackedWrites, s.migrations, s.migratedRecords = 0, 0, 0
	s.compactions, s.reclaimedSlots = 0, 0
	s.recoveryNS, s.compactionNS = nil, nil
	s.pipeCommits, s.maxInFlight = 0, 0
	if s.cache != nil {
		s.cache.hits, s.cache.misses = 0, 0
		s.cache.specFills, s.cache.invalidations, s.cache.evictions = 0, 0, 0
	}
	for _, sh := range s.shards {
		// The flush lane and the in-flight flights' completion points live
		// on the busy clock being discarded: rebase them with it, or the
		// next flight queues behind a lane as long as everything reset away.
		for i := range sh.flights {
			sh.flights[i].endBusy -= sh.busyNS
		}
		sh.laneEnd = max(0, sh.laneEnd-sh.busyNS)
		sh.busyNS = 0
		sh.churnNS = 0
		sh.writeLat = nil
		sh.issueLat = nil
	}
	for i := range s.winBase {
		s.winBase[i] = 0
	}
	for b := range s.bucketWin {
		s.bucketWin[b] = 0
	}
}
