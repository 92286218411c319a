package kv

import (
	"fmt"
	"slices"
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
	// persist is the configured Strategy's row of the rules table
	// (persist.go): the only form in which it reaches the write, commit
	// and recovery paths.
	persist rule
	cluster *memsim.Cluster
	front   core.MachineID
	// worker is the one thread every shard's work runs on, homed on the
	// front end: a front crash kills it and RecoverFront starts its
	// successor (failover.go).
	worker *memsim.Thread
	shards []*shard

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
	// declaration); maxInFlight and the four sample series are the
	// store-level metrics state that does not sum. The series only ever
	// grow by append (ResetMetrics swaps in nil), so Metrics hands out
	// capped views of them without copying.
	//cxl0:guarded-by mu
	ctr          Counters
	maxInFlight  int
	recoveryNS   []float64
	compactionNS []float64
	// writeLat and issueLat are the ack and issue (submit-to-return)
	// latencies of acknowledged writes, store-wide in ack order.
	//cxl0:guarded-by mu
	writeLat []float64
	//cxl0:guarded-by mu
	issueLat []float64

	// frontDown is true while the front-end machine is crashed: every
	// client operation enters through the front end, so the whole
	// service surface fails with ErrFrontDown until RecoverFront (see
	// failover.go).
	frontDown bool

	// churning is true while a bucket migration, a log compaction or a
	// recovery's re-persist is writing and flushing records, so shared
	// flush paths (a fabric-wide flush's cross-charge) can classify their
	// cost as churn.
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

	// leg is the store's part of the call over several stores in
	// progress (fanout.go).
	leg leg
	// touched marks, per shard, the shards the Apply in progress wrote
	// (applyLocked), kept here so a batch allocates nothing. Dead
	// outside it.
	//cxl0:guarded-by mu
	touched []bool
}

// Open builds the cluster (one front-end machine plus one machine per
// shard, all with non-volatile memory), the worker on its front end and
// the shards.
//
//cxl0:locked mu — the store has not escaped yet
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	persist, err := cfg.Strategy.row()
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
	buckets := bucketCount(cfg.Shards)
	s := &Store{
		cfg:       cfg,
		persist:   persist,
		cluster:   cluster,
		front:     0,
		shardMap:  make([]int, buckets),
		bucketVer: make([]uint64, buckets),
		bucketWin: make([]float64, buckets),
		winBase:   make([]float64, cfg.Shards),
		touched:   make([]bool, cfg.Shards),
	}
	if s.worker, err = cluster.NewThread(s.front); err != nil {
		return nil, err
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
			view:    view{logCap: cfg.Capacity},
		}
		if err := sh.allocMedium(cluster); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
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
func (s *Store) writeLogWords(sh *shard, slot int, r rec) error {
	return s.writeWords(sh.logR, slot, [recWords]core.Val{r.key, r.val, r.chk(slot, sh.epoch)})
}

// writeRecord is the log writer: it makes the record at slot durable
// before returning, or — under a batched strategy — stages it in the
// shard's open batch for the next commit point. The caller has already
// bounds-checked slot.
//
//cxl0:locked mu
func (s *Store) writeRecord(sh *shard, slot int, r rec) error {
	if s.persist.batched {
		if sh.pending == 0 {
			sh.batchE = s.cluster.Epoch(sh.machine)
		}
		if err := s.writeLogWords(sh, slot, r); err != nil {
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
		if err := s.writeLogWords(sh, slot, r); err != nil {
			return err
		}
		if err := s.flushRange(sh, sh.logR, slot, 1); err != nil {
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
				if err := s.writeLogWords(sh, slot, sh.log[slot]); err != nil {
					return flight{}, err
				}
			}
			sh.batchE = epoch
			continue
		}
		if err := s.flushRange(sh, sh.logR, first, sh.pending); err != nil {
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
// recovery's salvage all pass through it — and, under the pipeline, the
// one place the view takes a client write (keyMoved's ack step). Move
// markers and migrated copies are not client writes and are skipped.
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
		s.writeLat = append(s.writeLat, ackLat)
		s.issueLat = append(s.issueLat, issueLat)
		s.rec.WriteLatency(ackLat, issueLat)
		s.ctr.Acked++
		acked++
		s.keyMoved(sh, r, slot, true)
	}
	return acked
}

// keyMoved is the one visibility event: the only function in which the
// state reads of a single key are served moves, so the only per-key
// snoop of the front end's cached copy (docs/caching.md). The record r
// at log slot slot was either just appended (the write step, !ack) or is
// being acknowledged (the ack step). The view takes the record at the
// write step when the write is acknowledged as it is written, and at the
// ack step under the pipeline, so a read never observes a write before
// its commit point. The copy is snooped exactly when the view takes.
//
//cxl0:locked mu
func (s *Store) keyMoved(sh *shard, r rec, slot int, ack bool) {
	if (ack || !s.pipelined()) && sh.view.take(r.key, slot, r.val != 0) {
		s.cache.invalidateKeyLocked(r.key)
	}
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
	s.keyMoved(sh, r, slot, false)
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
	v, err := s.worker.Load(sh.valLocOf(slot))
	end := s.cluster.NowNS()
	span := end - start
	sh.charge(span, false)
	s.bucketWin[s.bucketOf(key)] += span
	if err != nil {
		return 0, err
	}
	if s.cache != nil {
		s.cache.fillLocked(key, v)
		s.rec.Mark(obs.KindCacheMiss, sh.id, 0, end, end)
	}
	return v, nil
}

// MultiGet is MultiGetStores over this one store.
func (s *Store) MultiGet(keys []core.Val) ([]Lookup, error) {
	out, _, err := MultiGetStores([]*Store{s}, keys, nil)
	return out, err
}

// MultiGetStores is the batch lookup (DB.MultiGet) over stores that
// partition the keyspace (fanout.go), each key routed by StoreOf. A store
// with a key, or the only store, runs a leg: it resolves its keys,
// counting in MultiGets once it has resolved the first, and reports its
// op span. A key on a partitioned shard is withheld — Found false, its
// shard named in the *PartialResultError the other keys' results come
// with — while any other error fails the call. fan, when set, is the
// recorder of the fan-out the call serves (fanOut.publish).
func MultiGetStores(stores []*Store, keys []core.Val, fan *obs.Recorder) ([]Lookup, int, error) {
	for _, k := range keys {
		if k < 0 {
			return nil, -1, ErrBadKey
		}
	}
	lockStores(stores)
	defer unlockStores(stores)
	f := openFanOut(stores, fan)
	defer f.publish(stores, obs.OpMultiGet, len(keys))
	route(stores, len(keys), func(i int) core.Val { return keys[i] })
	out := make([]Lookup, len(keys))
	var unavailable []int
	missing, base := 0, 0
	for i, st := range stores {
		if len(st.leg.pos) > 0 || len(stores) == 1 {
			var err error
			if unavailable, err = st.multiGetLegLocked(keys, out, base, unavailable); err != nil {
				return nil, i, err
			}
			missing += len(st.leg.pos) - st.leg.n
		}
		base += len(st.shards)
	}
	if missing > 0 {
		slices.Sort(unavailable)
		return out, -1, &PartialResultError{Op: "multiget", Unavailable: unavailable, Missing: missing}
	}
	return out, -1, nil
}

// multiGetLegLocked resolves the keys at the store's positions into out,
// adding the partitioned shards it withholds keys of, numbered from base,
// to unavailable.
func (s *Store) multiGetLegLocked(keys []core.Val, out []Lookup, base int, unavailable []int) ([]int, error) {
	if s.frontDown {
		return unavailable, ErrFrontDown
	}
	s.leg.startNS = s.cluster.NowNS()
	n := 0
	for j, i := range s.leg.pos {
		k := keys[i]
		out[i].Key = k
		if sh := s.shards[s.shardOf(k)]; sh.partitioned && !sh.down {
			// Not counted in Gets: the placeholder lookup was denied by
			// the partition, not served.
			if !slices.Contains(unavailable, base+sh.id) {
				unavailable = append(unavailable, base+sh.id)
			}
			continue
		}
		v, ok, err := s.getLocked(k)
		if err != nil {
			if j > 0 {
				s.ctr.MultiGets++
			}
			return unavailable, err
		}
		out[i].Val, out[i].Found = v, ok
		n++
	}
	s.ctr.MultiGets++
	s.endLeg(n)
	s.rec.OpSpan(obs.OpMultiGet, -1, s.leg.startNS, s.leg.endNS, n, 0, false)
	return unavailable, nil
}

// Apply is ApplyStores over this one store.
func (s *Store) Apply(b *Batch) (Ack, error) {
	ack, _, err := ApplyStores([]*Store{s}, b, nil)
	return ack, err
}

// ApplyStores is the batch write (DB.Apply) over stores that partition
// the keyspace (fanout.go), each op routed by StoreOf. A store with an op
// runs a leg: it applies its ops in batch order, then commits every shard
// they touched. The Ack is the last record of the store holding the
// batch's final op. No other call over the stores sees the batch part
// applied, since it holds their locks throughout; a failure leaves the
// earlier legs and a prefix of the failing one applied. fan, when set, is
// the recorder of the fan-out the call serves (fanOut.publish).
func ApplyStores(stores []*Store, b *Batch, fan *obs.Recorder) (Ack, int, error) {
	if b == nil || b.Len() == 0 {
		return Ack{Shard: -1, Seq: -1, Durable: true}, -1, nil
	}
	for _, op := range b.ops {
		if op.key < 0 || (!op.del && op.val < 1) {
			return Ack{}, -1, ErrBadKey
		}
	}
	lockStores(stores)
	defer unlockStores(stores)
	f := openFanOut(stores, fan)
	defer f.publish(stores, obs.OpApply, b.Len())
	route(stores, len(b.ops), func(i int) core.Val { return b.ops[i].key })
	last := StoreOf(b.ops[len(b.ops)-1].key, len(stores))
	var final Ack
	base := 0
	for i, st := range stores {
		if len(st.leg.pos) > 0 {
			ack, err := st.applyLegLocked(b.ops)
			if err != nil {
				return Ack{}, i, err
			}
			if i == last {
				final = ack
				final.Shard += base
			}
		}
		base += len(st.shards)
	}
	return final, -1, nil
}

// applyLegLocked runs the store's leg of an Apply inside its op span.
func (s *Store) applyLegLocked(ops []batchOp) (last Ack, err error) {
	s.leg.startNS = s.cluster.NowNS()
	ackedW, commitW := s.ctr.Acked, s.obsCommitAcked
	defer func() {
		s.rec.OpSpan(obs.OpApply, -1, s.leg.startNS, s.cluster.NowNS(),
			len(s.leg.pos), s.spanAcked(ackedW, commitW), last.Durable)
		if err == nil {
			s.endLeg(len(s.leg.pos))
		}
	}()
	if s.frontDown {
		return Ack{}, ErrFrontDown
	}
	touched := s.touched
	clear(touched)
	for j, i := range s.leg.pos {
		if s.applyHook != nil {
			s.applyHook(j)
		}
		op := ops[i]
		sh := s.shards[s.shardOf(op.key)]
		ack, err := s.append(sh, op.key, op.val) // a delete's val is 0, the tombstone
		if err != nil {
			return Ack{}, err
		}
		if j == 0 {
			// Served-only counting, like getLocked: a batch counts once
			// its first record is written, and one denied before that
			// never ran.
			s.ctr.Batches++
		}
		touched[sh.id] = true
		last = Ack{Shard: ack.Shard, Seq: ack.Seq, Durable: true}
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
	return last, nil
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
	// The crash moves the view (foldFlights takes every write still
	// waiting), and reads may have cached visible-but-unacknowledged
	// values it just destroyed; recovery decides what survives, so the
	// front end's copies of the shard's keys go now.
	s.invalidateShardLocked(i)
	now := s.cluster.NowNS()
	s.rec.Mark(obs.KindCrash, i, 0, now, now)
}

// Partition cuts shard i's machine off the fabric. Operations routed to
// the shard return ErrUnavailable (fan-out reads degrade to partial
// results) until Heal; under the GPF-based strategies no shard of this
// store can commit meanwhile, because a global flush must drain the
// partitioned machine's cache too. Nothing is lost — caches, memory and
// the log stay intact, so Heal restores service without recovery. The
// front end's cached copies of the shard's keys stay too: every read
// path denies the shard before it looks at the cache, and only a bucket
// flip, which snoops the bucket itself, can move their visible state
// meanwhile (docs/caching.md).
func (s *Store) Partition(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[i]
	sh.partitioned = true
	s.cluster.Partition(sh.machine)
	now := s.cluster.NowNS()
	s.rec.Mark(obs.KindPartition, i, 0, now, now)
}

// Heal reconnects shard i to the fabric, restoring service immediately.
// A no-op for a shard that is not partitioned. It moves neither the
// medium nor the view, so it snoops no cached copy.
func (s *Store) Heal(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[i]
	if !sh.partitioned {
		return
	}
	sh.partitioned = false
	s.cluster.Heal(sh.machine)
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
