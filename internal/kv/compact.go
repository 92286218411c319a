package kv

import (
	"fmt"
	"math"

	"cxl0/internal/core"
)

// This file implements log compaction / checkpointing — the mechanism
// that turns the append-only shard logs into indefinitely reusable ones
// (ROADMAP "Log compaction"). Compacting shard sh proceeds in three
// durable phases, all under the store lock (no client operation
// interleaves):
//
//  1. Snapshot. The shard's open batch is committed, then the live index
//     — every key's newest record, excluding deleted, overwritten and
//     migrated-away records — is written in key order into the snapshot
//     region of the NEXT epoch (epoch e's snapshot lives in region e%2,
//     so writing epoch e+1's snapshot never disturbs the committed one)
//     and made durable with the store's own persistence strategy: under
//     RangedCommit one RFlushRange over exactly the snapshot's lines,
//     under the GPF strategies one GPF for the whole snapshot, under the
//     per-operation strategies each record persists as it is written.
//  2. Commit. The snapshot-epoch record — (epoch, length, checksum),
//     checksum word last — is MStored into its parity slot. MStore is
//     persistent at return under every strategy (the same primitive
//     recovery's log truncation relies on), so this record is the
//     migration-move-out-style commit point: a recovery that reads epoch
//     e+1 knows the snapshot is authoritative and the old log is dead.
//  3. Reclaim. The log restarts empty and the index is re-homed onto the
//     snapshot. Record checksums are bound to the snapshot epoch, so
//     every pre-compaction log record is already invalid under e+1 the
//     instant the commit record lands — the reclaim needs no medium
//     writes to be correct. The old records' checksum words are still
//     zeroed (best-effort, like recovery's truncation) so dead data is
//     also unreadable, and the cost of that sweep is the realistic price
//     of reclamation.
//
// Crash-safety, step by step: a crash before the commit record leaves
// the old epoch's record as the only valid one, so recovery resolves the
// old snapshot + the old log — the partially written next snapshot is
// garbage in a region nothing references (and its checksums only
// validate under an epoch that was never committed). A crash after the
// commit record resolves the new snapshot + an empty log tail: the old
// log's records fail epoch validation at slot 0. The epoch record itself
// is torn-write-safe because its two slots ping-pong (writing epoch
// e+1's slot never touches epoch e's) and its checksum word is written
// last — a partial epoch record validates in neither slot and recovery
// falls back to the previous epoch.
//
// Move markers never enter snapshots: compaction folds the index, and
// the in-memory shard map is current while the lock is held, so a marker
// whose flip has been applied is dead bookkeeping and a marker orphaned
// by a phase-2 migration failure is superseded by construction (the
// fold keeps exactly the acknowledged live state the superseded-marker
// recovery rule would preserve). The lost-flip redo window (commit
// record durable, flip lost) exists only across a front-end death inside
// MigrateBucket, and a dead front-end cannot compact, so compaction can
// never reclaim a marker that recovery still needs.

// The checkpoints of one shard compaction, in order. The test hook fires
// at each so crash-safety can be probed at every phase boundary.
const (
	// StepBeforeSnapshot fires after the open batch committed and the
	// live set was collected, before anything of the snapshot is written.
	StepBeforeSnapshot Step = "before-snapshot"
	// StepMidSnapshot fires halfway through writing the snapshot records.
	StepMidSnapshot Step = "mid-snapshot"
	// StepAfterSnapshot fires once the snapshot is durable, before the
	// commit record.
	StepAfterSnapshot Step = "after-snapshot"
	// StepBeforeEpoch fires immediately before the snapshot-epoch record
	// (the commit point) is written.
	StepBeforeEpoch Step = "before-epoch"
	// StepAfterEpoch fires after the commit record is durable and before
	// the reclaim sweep.
	StepAfterEpoch Step = "after-epoch"
	// StepAfterReclaim fires after the old log's checksum words were
	// zeroed and the in-memory log and index were re-homed.
	StepAfterReclaim Step = "after-reclaim"
)

// CompactionStats reports one committed shard compaction.
type CompactionStats struct {
	// Shard is the compacted shard (global index under a pooled router).
	Shard int
	// Epoch is the snapshot epoch the compaction committed.
	Epoch uint64
	// Live is the number of live records folded into the snapshot.
	Live int
	// Reclaimed is the number of slots the compaction retired: old log
	// records plus old snapshot records minus the live set — deleted,
	// overwritten and migrated-away records, and superseded snapshot
	// entries.
	Reclaimed int
	// SimNS is the simulated time the compaction consumed (charged to the
	// shard as churn, like recovery time).
	SimNS float64
}

// compactCheckpoint publishes the compaction checkpoint as an
// observability event, then fires the test hook — in that order, so the
// event records reaching the checkpoint even when the hook injects a
// crash there.
func (s *Store) compactCheckpoint(step Step, sh *shard, epoch uint64, live, reclaimed int) {
	s.rec.CompactionStep(string(step), step == StepAfterReclaim, sh.id, epoch, live, reclaimed, s.cluster.NowNS())
	s.fireStep(step)
}

// compactThreshold is the log length at which auto-compaction triggers
// for a shard of the given capacity.
func (s *Store) compactThreshold(capacity int) int {
	n := int(math.Ceil(s.cfg.CompactAtFill * float64(capacity)))
	if n < 1 {
		n = 1
	}
	if n > capacity {
		n = capacity
	}
	return n
}

// SnapshotEpoch returns shard i's committed snapshot epoch (0 = never
// compacted).
func (s *Store) SnapshotEpoch(i int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i].epoch
}

// SnapshotLen returns the record count of shard i's committed snapshot.
func (s *Store) SnapshotLen(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards[i].snap)
}

// Compact folds every shard's live index into a durable snapshot and
// reclaims its log, shard by shard; shards whose logs are empty are
// skipped (their snapshots already hold exactly the live set). Returns
// the per-shard stats of the compactions performed. A down shard with a
// non-empty log fails the call with ErrShardDown, like Sync.
func (s *Store) Compact() ([]CompactionStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frontDown {
		return nil, ErrFrontDown
	}
	var all []CompactionStats
	for _, sh := range s.shards {
		if len(sh.log) == 0 {
			continue
		}
		st, err := s.compactLocked(sh)
		if err != nil {
			return all, err
		}
		all = append(all, st)
	}
	return all, nil
}

// CompactShard compacts one shard. A no-op (zero stats) when the shard's
// log is empty.
func (s *Store) CompactShard(i int) (CompactionStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.shards) {
		return CompactionStats{}, fmt.Errorf("%w: shard %d not in [0,%d)", ErrOutOfRange, i, len(s.shards))
	}
	if s.frontDown {
		return CompactionStats{}, ErrFrontDown
	}
	return s.compactLocked(s.shards[i])
}

// compactLocked runs the three-phase protocol described above. The
// caller holds the store lock.
func (s *Store) compactLocked(sh *shard) (stats CompactionStats, err error) {
	stats = CompactionStats{Shard: sh.id}
	if err := sh.unavailable(); err != nil {
		return stats, err
	}
	if len(sh.log) == 0 {
		return stats, nil
	}
	// Commit the open batch first so every record to fold is acknowledged
	// state. The commit acknowledges client writes, so its cost is
	// charged as ordinary traffic, like the append- and Sync-triggered
	// commits; everything after is compaction churn.
	if err := s.commitCharged(sh); err != nil {
		return stats, err
	}
	// A live set beyond the shard's capacity can never fold — this is the
	// one condition that remains a ShardFullError under auto-compaction.
	// Counted once the commit above drained the pipeline (before it, the
	// view does not count the writes in flight), and before the collect
	// phase, so a client retrying against a full shard fails cheaply.
	if live := sh.view.live(); live > sh.cap {
		return stats, &ShardFullError{
			Shard: sh.id, Appended: live, Capacity: sh.cap, Need: live - sh.cap, Live: true,
		}
	}

	s.churning = true
	start := s.cluster.NowNS()
	committed := false
	defer func() {
		s.churning = false
		span := s.cluster.NowNS() - start
		sh.charge(span, true)
		if committed {
			stats.SimNS = span
			s.ctr.Compactions++
			s.ctr.ReclaimedSlots += uint64(stats.Reclaimed)
			s.compactionNS = append(s.compactionNS, span)
		}
	}()

	// Collect the live set in key order (the order all yields), paying
	// the simulated cost of reading each value from wherever it lives (log
	// or old snapshot).
	live := make([]rec, 0, sh.view.live())
	for k, slot := range sh.view.all() {
		if sh.down {
			return stats, ErrShardDown
		}
		v, err := s.worker.Load(sh.valLocOf(slot))
		if err != nil {
			return stats, err
		}
		live = append(live, rec{key: k, val: v})
	}

	next := sh.epoch + 1
	s.compactCheckpoint(StepBeforeSnapshot, sh, next, len(live), 0)
	if err := s.writeSnapshot(sh, next, live); err != nil {
		return stats, err
	}
	s.compactCheckpoint(StepAfterSnapshot, sh, next, len(live), 0)
	if sh.down {
		// The snapshot is durable but uncommitted: abort, and recovery
		// resolves the old epoch. Aborting after StepAfterSnapshot and
		// redoing later is always sound because nothing references the
		// next epoch's region until its commit record exists.
		return stats, ErrShardDown
	}
	s.compactCheckpoint(StepBeforeEpoch, sh, next, len(live), 0)
	if sh.down {
		return stats, ErrShardDown
	}

	// Phase 2: commit — the durable snapshot-epoch record.
	if err := sh.writeEpochRecord(s.worker, next, len(live)); err != nil {
		return stats, err
	}
	s.compactCheckpoint(StepAfterEpoch, sh, next, len(live), 0)

	// Phase 3: reclaim. The commit point has passed, so the re-homing
	// proceeds even if the shard machine just failed — recovery resolves
	// to exactly this state (new snapshot, empty log tail).
	oldLog, oldSnap := len(sh.log), len(sh.snap)
	sh.epoch = next
	sh.snap = live
	sh.log = sh.log[:0]
	sh.catchUp()
	sh.view.reset(live)
	// Reclaim re-homed every live record into the new snapshot region:
	// the lines the front end's copies were filled against are being
	// retired, so the compaction snoops the shard's keys wholesale (see
	// docs/caching.md).
	s.invalidateShardLocked(sh.id)
	// Zero the dead log's checksum words so reclaimed data is unreadable
	// as well as invalid. Best-effort: the epoch binding already retires
	// these records, so a crash mid-sweep loses nothing — the sweep just
	// stops (MStore to a down machine fails).
	if !sh.down {
		_ = sh.logR.retire(s.worker, 0, oldLog)
	}
	s.compactCheckpoint(StepAfterReclaim, sh, next, len(live), oldLog+oldSnap-len(live))

	committed = true
	stats.Epoch = next
	stats.Live = len(live)
	stats.Reclaimed = oldLog + oldSnap - len(live)
	return stats, nil
}

// writeSnapshot writes the live records into epoch's snapshot region and
// makes them durable with the store's persistence strategy: every word
// persists as it is written under a per-word strategy, otherwise one
// flush of the strategy's scope covers the whole snapshot — a single
// RFlushRange over exactly its lines, or a single GPF. The snapshot is
// private until the epoch record commits it, so a crash in here simply
// aborts; there is no retry.
func (s *Store) writeSnapshot(sh *shard, epoch uint64, live []rec) error {
	machineEpoch := s.cluster.Epoch(sh.machine)
	if len(live) == 0 {
		s.compactCheckpoint(StepMidSnapshot, sh, epoch, len(live), 0)
	}
	for i, r := range live {
		if i == len(live)/2 {
			s.compactCheckpoint(StepMidSnapshot, sh, epoch, len(live), 0)
		}
		if sh.down {
			return ErrShardDown
		}
		if err := s.writeWords(sh.snapR(epoch), i, [recWords]core.Val{r.key, r.val, snapChkOf(i, r.key, r.val, epoch)}); err != nil {
			return err
		}
	}
	if err := s.flushRange(sh, sh.snapR(epoch), 0, len(live)); err != nil {
		return err
	}
	if sh.down || s.cluster.Epoch(sh.machine) != machineEpoch {
		// The shard machine failed while the snapshot was in flight: parts
		// of it may have survived only in remote caches or not at all. It
		// is uncommitted, so abort.
		return ErrShardDown
	}
	return nil
}
