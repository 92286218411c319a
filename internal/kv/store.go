package kv

import (
	"fmt"
	"sync"

	"cxl0/internal/core"
	"cxl0/internal/latency"
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

	// ctr holds the service counters (metrics.go is their one
	// declaration); maxInFlight and the two sample series are the
	// store-level metrics state that does not sum.
	//cxl0:guarded-by mu
	ctr          Counters
	maxInFlight  int
	recoveryNS   []float64
	compactionNS []float64

	// frontDown is true while the front-end machine is crashed: every
	// client operation enters through the front end, so the whole
	// service surface fails with ErrFrontDown until RecoverFront (see
	// failover.go).
	frontDown bool

	// churning is true while a bucket migration or a log compaction is
	// writing and flushing its records, so shared flush paths (a
	// fabric-wide flush's cross-charge) can classify their cost as churn.
	churning bool

	// stepHook, when set (tests only), is called at each checkpoint of a
	// bucket migration or a shard compaction with the store lock held.
	stepHook func(step Step)
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
	// unobserved one; with rec nil the hot path pays the nil recorder's
	// no-op methods and lock-free clock reads.
	// obsCommitAcked counts the client acks carried on emitted commit
	// events, so op spans can report exactly the acks not already
	// attributed to a commit event (the ack-agreement invariant).
	rec            *obs.Recorder
	obsCommitAcked uint64

	// leg is the store's part of the range read in progress, kept here
	// so a read allocates nothing per store (scan.go). Dead outside it.
	leg scanLeg
}

// Open builds the cluster (one front-end machine plus one machine per
// shard, all with non-volatile memory) and the shards on it.
//
//cxl0:locked mu — the store has not escaped yet
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
			Heap: mediumWords(cfg.Capacity),
		})
	}
	cluster := memsim.NewCluster(machines, memsim.Config{
		Variant:    cfg.Variant,
		EvictEvery: cfg.EvictEvery,
		Seed:       cfg.Seed,
		Latency:    latency.NewModel(),
	})
	s := &Store{
		cfg:       cfg,
		persist:   persist,
		cluster:   cluster,
		front:     0,
		shardMap:  make([]int, cfg.Buckets),
		bucketVer: make([]uint64, cfg.Buckets),
		bucketWin: make([]float64, cfg.Buckets),
		winBase:   make([]float64, cfg.Shards),
	}
	if cfg.ReadCache > 0 {
		s.cache = newReadCache(cfg.ReadCache, &s.ctr)
		if cfg.Prefetch {
			s.pred = newPredictor(cfg.Shards)
		}
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
		if err := sh.allocMedium(cluster); err != nil {
			return nil, err
		}
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
	return s.writeWords(t, sh, sh.logR, slot, [recWords]core.Val{r.key, r.val, r.chk(slot, sh.epoch)})
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
		if err := s.flushRange(t, sh, sh.logR, slot, 1, s.churning); err != nil {
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
		if err := s.flushRange(t, sh, sh.logR, first, sh.pending, s.churning); err != nil {
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
	s.ctr.Commits++
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
		s.ctr.Acked++
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

// commitCharged is commitLocked as a drain point runs it — Apply's and
// Sync's commit points, and the commit that precedes a compaction or a
// migration: inside its own span on the shard's busy clock, charged as
// ordinary traffic because the flush acknowledges client writes. (An
// append's batch-full commit and a migration's marker commits run inside
// their callers' spans instead.)
//
//cxl0:locked mu
func (s *Store) commitCharged(sh *shard) error {
	start := s.cluster.NowNS()
	err := s.commitLocked(sh)
	sh.charge(s.cluster.NowNS()-start, false)
	return err
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
		s.ctr.Deletes++
	} else {
		s.ctr.Puts++
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
		sh.catchUp()
		s.ackRange(sh, slot, slot+1, s.cluster.NowNS(), 0)
	} else if sh.pending >= s.cfg.Batch {
		if s.pipelined() {
			// The pipelined commit point: close the append's span first
			// (the flush must not land on the busy clock), then issue
			// the batch as an in-flight flight. The filling write
			// returns unacknowledged — its ack fires at retirement.
			sh.charge(s.cluster.NowNS()-start, false)
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
	sh.charge(s.cluster.NowNS()-start, false)
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
	start := s.cluster.NowNS()
	ackedW, commitW := s.ctr.Acked, s.obsCommitAcked
	ack, err := s.append(sh, key, val)
	s.rec.OpSpan(op, sh.id, start, s.cluster.NowNS(),
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
//
//cxl0:locked mu
func (s *Store) spanAcked(ackedBefore, commitBefore uint64) int {
	return int(s.ctr.Acked-ackedBefore) - int(s.obsCommitAcked-commitBefore)
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
	start := s.cluster.NowNS()
	v, ok, err := s.getLocked(key)
	n := 0
	if ok {
		n = 1
	}
	s.rec.OpSpan(obs.OpGet, shard, start, s.cluster.NowNS(), n, 0, false)
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
	s.ctr.Gets++
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
			now := s.cluster.NowNS()
			s.rec.Mark(obs.KindCacheHit, sh.id, 0, now, now)
			return v, nil
		}
	}
	start := s.cluster.NowNS()
	v, err := sh.thread.Load(sh.valLocOf(slot))
	end := s.cluster.NowNS()
	span := end - start
	sh.charge(span, false)
	s.bucketWin[s.bucketOf(key)] += span
	if err != nil {
		return 0, err
	}
	if s.cache != nil {
		s.cache.fillLocked(key, v, false)
		s.rec.Mark(obs.KindCacheMiss, sh.id, 0, end, end)
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
	s.ctr.MultiGets++
	start := s.cluster.NowNS()
	out := make([]Lookup, 0, len(keys))
	var unavailable []bool
	missing := 0
	for _, k := range keys {
		if sh := s.shards[s.shardOf(k)]; sh.partitioned && !sh.down {
			// Not counted in Gets: the placeholder lookup was denied by
			// the partition, not served.
			unavailable = s.markShard(unavailable, sh)
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
	s.rec.OpSpan(obs.OpMultiGet, -1, start, s.cluster.NowNS(), len(out)-missing, 0, false)
	if missing > 0 {
		return out, &PartialResultError{Op: "multiget", Unavailable: shardList(unavailable), Missing: missing}
	}
	return out, nil
}

// markShard sets sh in a shard membership mask, allocated on first use:
// the mask is read only when a partitioned shard was met.
func (s *Store) markShard(mask []bool, sh *shard) []bool {
	if mask == nil {
		mask = make([]bool, len(s.shards))
	}
	mask[sh.id] = true
	return mask
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
	start := s.cluster.NowNS()
	ackedW, commitW := s.ctr.Acked, s.obsCommitAcked
	ack, err := s.applyLocked(b)
	s.rec.OpSpan(obs.OpApply, -1, start, s.cluster.NowNS(),
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
	s.ctr.Batches++
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
		if err := s.commitCharged(s.shards[id]); err != nil {
			return Ack{}, err
		}
	}
	return Ack{Shard: last.Shard, Seq: last.Seq, Durable: true}, nil
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
		if err := s.commitCharged(sh); err != nil {
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
	now := s.cluster.NowNS()
	s.rec.Mark(obs.KindCrash, i, 0, now, now)
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
	now := s.cluster.NowNS()
	s.rec.Mark(obs.KindPartition, i, 0, now, now)
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
	now := s.cluster.NowNS()
	s.rec.Mark(obs.KindHeal, i, 0, now, now)
}

// Degrade sets shard i's device latency multiplier: every operation
// served by the shard's memory charges factor× the modeled cost (factor
// 1 restores full speed; anything but a finite number >= 1 reads as 1).
// Pure cost, no semantic effect — the shard keeps serving, just slower,
// and its busy time grows accordingly.
func (s *Store) Degrade(i int, factor float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[i]
	s.cluster.Degrade(sh.machine, factor)
	// The event carries the factor the device took, not the one asked for,
	// in percent.
	now := s.cluster.NowNS()
	s.rec.Mark(obs.KindDegrade, i, int(s.cluster.DegradeFactor(sh.machine)*100), now, now)
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
