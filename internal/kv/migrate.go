package kv

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"cxl0/internal/core"
	"cxl0/internal/obs"
)

// This file implements bucket migration — the mechanism behind load-aware
// rebalancing. Moving bucket b from shard src to shard dst proceeds in
// three durable phases, all under the store lock (no client operation
// interleaves):
//
//  1. Copy. Both shards' open batches are committed, then b's live
//     records are appended to dst's log — preceded by a move-in marker —
//     and made durable with the store's own persistence strategy: under
//     RangedCommit a single RFlushRange over exactly the copied records'
//     lines, under the GPF strategies one GPF, under the per-operation
//     strategies each copy persists as it is written.
//  2. Commit. A move-out marker for b is appended durably to src's log.
//     This record is the migration's commit point: the copies it vouches
//     for are already durable on dst, and a recovery that reads it knows
//     the handoff happened even if the in-memory flip below was lost.
//  3. Flip. The shard map entry for b is repointed at dst, the copied
//     records are indexed on dst, and b's keys leave src's index.
//
// Crash-safety hangs on two recovery rules (see Store.Recover):
//
//   - Wipe: during the recovery replay, a move marker for bucket b
//     supersedes every earlier record of b in that log. On src this
//     retires the moved-away records; on dst the move-in marker retires
//     orphaned copies a previously aborted inbound migration left behind,
//     so a key deleted while its bucket lived elsewhere can never
//     resurrect from a stale copy.
//   - Redo: a durable move-out record with a version newer than the
//     applied map state completes the flip during recovery — ownership is
//     resolved from the log, deterministically, on either shard.
//
// Both rules yield to one exception: a move-out marker followed in its
// own log by a client record of the same bucket is *orphaned* — the
// migration failed in phase 2 after its commit record persisted, the map
// never flipped, and the source kept acknowledging writes. Recovery
// strips such a marker of all authority (no wipe, no redo): the earlier
// records it would have retired are still the live state, and the
// destination's copies are stale.
//
// A crash before the commit point aborts the migration: the map keeps
// pointing at src, and the partial copies on dst are either checksum-
// zeroed (dst alive) or left for dst's own recovery to retire (dst down —
// they are unindexed by the ownership sweep and wiped by the next move-in
// marker). A crash after the commit point lets the flip proceed: the
// copies are durable, and a down destination simply answers ErrShardDown
// until it recovers.

// Step names a checkpoint of a bucket migration or a shard compaction.
// Its value is the name the checkpoint's obs event carries.
type Step string

// The checkpoints of one bucket migration, in order. The test hook fires
// at each so crash-safety can be probed at every phase boundary.
const (
	// StepBeforeCopy fires after both shards' open batches committed,
	// before anything of the migration is written.
	StepBeforeCopy Step = "before-copy"
	// StepMidCopy fires halfway through writing the copied records.
	StepMidCopy Step = "mid-copy"
	// StepAfterCopy fires once the copies are durable on the destination.
	StepAfterCopy Step = "after-copy"
	// StepBeforeFlip fires after the move-out record is durable on the
	// source (the commit point) and before the in-memory map flip.
	StepBeforeFlip Step = "before-flip"
	// StepAfterFlip fires after the map flip and index handoff.
	StepAfterFlip Step = "after-flip"
)

// MigrationStats reports one completed bucket migration.
type MigrationStats struct {
	// Bucket is the migrated virtual bucket.
	Bucket int
	// From and To are the source and destination shards.
	From, To int
	// Records is the number of live records copied.
	Records int
	// SimNS is the simulated time the migration consumed across both
	// shards.
	SimNS float64
}

// encodeMove packs a move marker's payload word: version, direction
// (move-out markers commit a migration and carry redo authority; move-in
// markers only wipe) and the destination shard. Always >= 1, so the word
// is never mistaken for a delete tombstone.
func encodeMove(ver uint64, out bool, shard, nShards int) core.Val {
	d := uint64(0)
	if out {
		d = 1
	}
	return core.Val((ver*2+d)*uint64(nShards) + uint64(shard) + 1)
}

// decodeMove unpacks encodeMove.
func decodeMove(v core.Val, nShards int) (ver uint64, out bool, shard int) {
	u := uint64(v) - 1
	shard = int(u % uint64(nShards))
	u /= uint64(nShards)
	return u / 2, u%2 == 1, shard
}

// fireStep calls the test hook at a migration or compaction checkpoint.
func (s *Store) fireStep(step Step) {
	if s.stepHook != nil {
		s.stepHook(step)
	}
}

// stepCheckpoint publishes the migration checkpoint as an observability
// event, then fires the test hook — in that order, so the event records
// reaching the checkpoint even when the hook injects a crash there.
func (s *Store) stepCheckpoint(step Step, b, from, to, records int) {
	s.rec.MigrationStep(string(step), step == StepAfterFlip, b, from, to, records, s.cluster.NowNS())
	s.fireStep(step)
}

// MigrateBucket moves bucket b's live records to shard `to`, durably, and
// repoints the shard map. A no-op when the bucket already lives there.
func (s *Store) MigrateBucket(b, to int) (MigrationStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b < 0 || b >= len(s.shardMap) {
		return MigrationStats{}, fmt.Errorf("%w: bucket %d not in [0,%d)", ErrOutOfRange, b, len(s.shardMap))
	}
	if to < 0 || to >= len(s.shards) {
		return MigrationStats{}, fmt.Errorf("%w: shard %d not in [0,%d)", ErrOutOfRange, to, len(s.shards))
	}
	if s.frontDown {
		return MigrationStats{}, ErrFrontDown
	}
	if s.shardMap[b] == to {
		return MigrationStats{Bucket: b, From: to, To: to}, nil
	}
	return s.migrateBucket(b, to)
}

// migrateBucket runs the three-phase protocol described above. The caller
// holds the store lock and has checked b and to are in range and distinct
// from the current owner.
//
//cxl0:locked mu
func (s *Store) migrateBucket(b, to int) (MigrationStats, error) {
	from := s.shardMap[b]
	src, dst := s.shards[from], s.shards[to]
	stats := MigrationStats{Bucket: b, From: from, To: to}
	if src.down || dst.down {
		return stats, ErrShardDown
	}
	if src.partitioned || dst.partitioned {
		return stats, ErrUnavailable
	}
	startNS := s.cluster.NowNS()

	// Phase 1: copy. Commit both shards first so every record to copy is
	// acknowledged state and the copies form one contiguous, cleanly
	// flushable batch. These flushes acknowledge client writes, so their
	// cost is charged as ordinary traffic (busyNS), like the append- and
	// Sync-triggered commits; everything after is migration churn.
	for _, sh := range []*shard{src, dst} {
		if err := s.commitCharged(sh); err != nil {
			return stats, err
		}
	}
	// With auto-compaction enabled, make log headroom up front instead of
	// failing: the copy needs live(b)+1 slots on the destination's log
	// and the move-out record one slot on the source's. Nothing of the
	// migration has been written yet, so compacting here is just the
	// ordinary checkpoint protocol — and it must run before the live
	// records are collected below, because it re-homes their slots onto
	// the snapshot. A compaction error (only a live set beyond capacity)
	// aborts the migration untouched.
	if s.cfg.CompactAtFill > 0 {
		need := 0
		for k := range src.view.all() {
			if s.bucketOf(k) == b {
				need++
			}
		}
		if len(src.log) >= src.cap {
			if _, err := s.compactLocked(src); err != nil {
				return stats, err
			}
		}
		if len(dst.log) > 0 && len(dst.log)+need+1 > dst.cap {
			if _, err := s.compactLocked(dst); err != nil {
				return stats, err
			}
		}
	}

	s.churning = true
	defer func() { s.churning = false }()

	// Collect b's live records in slot order, paying the simulated cost
	// of reading each value from the source shard's memory.
	type pair struct {
		slot int
		key  core.Val
		val  core.Val
	}
	var pairs []pair
	for k, slot := range src.view.all() {
		if s.bucketOf(k) == b {
			pairs = append(pairs, pair{slot: slot, key: k})
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.slot, b.slot) })
	rstart := s.cluster.NowNS()
	readErr := func() error {
		for i := range pairs {
			// The newest record may live in the log or — after a
			// compaction — in the snapshot region; valLocOf dispatches.
			v, err := s.worker.Load(src.valLocOf(pairs[i].slot))
			if err != nil {
				return err
			}
			pairs[i].val = v
		}
		return nil
	}()
	src.charge(s.cluster.NowNS()-rstart, true)
	if readErr != nil {
		return stats, readErr
	}

	ver := s.moveSeq + 1
	s.moveSeq = ver
	if len(dst.log)+len(pairs)+1 > dst.cap {
		return stats, fmt.Errorf("migrating bucket %d: %w", b,
			&ShardFullError{Shard: to, Appended: len(dst.log), Capacity: dst.cap, Need: len(pairs) + 1})
	}
	if len(src.log) >= src.cap {
		return stats, fmt.Errorf("bucket %d move record: %w", b,
			&ShardFullError{Shard: from, Appended: len(src.log), Capacity: src.cap, Need: 1})
	}

	s.stepCheckpoint(StepBeforeCopy, b, from, to, len(pairs))
	preLen := len(dst.log)
	wstart := s.cluster.NowNS()
	copyErr := func() error {
		if src.down || dst.down {
			return ErrShardDown
		}
		// The move-in marker precedes the copies so a recovery replay
		// retires any orphaned copies of b from an earlier aborted
		// inbound migration before indexing the fresh ones.
		marker := rec{key: core.Val(b), val: encodeMove(ver, false, to, len(s.shards)), startNS: wstart, move: true}
		if err := s.writeRecord(dst, len(dst.log), marker); err != nil {
			return err
		}
		dst.log = append(dst.log, marker)
		for i, p := range pairs {
			if i == len(pairs)/2 {
				s.stepCheckpoint(StepMidCopy, b, from, to, len(pairs))
			}
			if src.down || dst.down {
				return ErrShardDown
			}
			r := rec{key: p.key, val: p.val, startNS: s.cluster.NowNS(), copied: true}
			if err := s.writeRecord(dst, len(dst.log), r); err != nil {
				return err
			}
			dst.log = append(dst.log, r)
		}
		if err := s.commitLocked(dst); err != nil {
			return err
		}
		dst.catchUp()
		return nil
	}()
	dst.charge(s.cluster.NowNS()-wstart, true)
	if copyErr != nil {
		return stats, s.abortCopies(dst, preLen, copyErr)
	}
	s.stepCheckpoint(StepAfterCopy, b, from, to, len(pairs))
	if src.down || dst.down {
		// No move-out record exists yet, so the migration can still be
		// aborted safely: the copies are never referenced.
		return stats, s.abortCopies(dst, preLen, ErrShardDown)
	}

	// Phase 2: commit — the durable move-out record on the source. If this
	// write fails, its durability is unknown, so the copies must survive:
	// either recovery reads the record and redoes the flip onto them, or
	// it doesn't and they stay orphaned (retired by the wipe and the
	// ownership sweep). Zeroing them here could lose acknowledged data.
	tstart := s.cluster.NowNS()
	moveOut := rec{key: core.Val(b), val: encodeMove(ver, true, to, len(s.shards)), startNS: tstart, move: true}
	writeOut := func() error {
		if err := s.writeRecord(src, len(src.log), moveOut); err != nil {
			return err
		}
		src.log = append(src.log, moveOut)
		if err := s.commitLocked(src); err != nil {
			return err
		}
		src.catchUp()
		return nil
	}()
	src.charge(s.cluster.NowNS()-tstart, true)
	if writeOut != nil {
		return stats, writeOut
	}
	s.stepCheckpoint(StepBeforeFlip, b, from, to, len(pairs))

	// Phase 3: flip. The commit point has passed, so the flip proceeds
	// even if a machine just failed — recovery on either shard resolves
	// to exactly this state (redo on src, index rebuild on dst).
	s.flipBucket(b, to, ver)
	s.ctr.Migrations++
	s.ctr.MigratedRecords += uint64(len(pairs))
	stats.Records = len(pairs)
	stats.SimNS = s.cluster.NowNS() - startNS
	s.stepCheckpoint(StepAfterFlip, b, from, to, len(pairs))
	return stats, nil
}

// abortCopies undoes a partial copy after a migration failed before its
// commit point. While the destination is alive the copied slots'
// checksums are zeroed (they can never validate again) and the mirror
// rolls back; when it is down the mirror must keep the slots so the
// destination's own recovery scans, truncates and retires them.
//
//cxl0:locked mu
func (s *Store) abortCopies(dst *shard, preLen int, cause error) error {
	if dst.down {
		return cause
	}
	start := s.cluster.NowNS()
	defer func() { dst.charge(s.cluster.NowNS()-start, true) }()
	if err := dst.logR.retire(s.worker, preLen, len(dst.log)); err != nil {
		return cause
	}
	dst.log = dst.log[:preLen]
	dst.catchUp()
	return cause
}

// flipBucket repoints bucket b at shard `to` as of migration version ver
// and moves its keys' visible state with it — the one bucket-scoped move,
// shared by a migration's in-line flip and the redo of a recovery that
// finds a durable move-out record whose flip was lost. The old owner's
// view drops the bucket; the new owner's is rebuilt for it from its log
// mirror (the copies the migration committed there before its move-out),
// under the same wipe rule as recovery's full rebuild (view.replay). The
// values are unchanged, but the old owner — whose lines the front end's
// copies were filled against — no longer owns them, so the flip snoops
// the whole bucket (see docs/caching.md).
//
//cxl0:locked mu
func (s *Store) flipBucket(b, to int, ver uint64) {
	inBucket := func(k core.Val) bool { return s.bucketOf(k) == b }
	s.shards[s.shardMap[b]].view.drop(inBucket)
	s.shardMap[b], s.bucketVer[b] = to, ver
	dst := s.shards[to]
	dst.view.drop(inBucket)
	for slot, r := range dst.log {
		dst.view.replay(slot, r, s.bucketOf, b)
	}
	s.cache.invalidateMatchLocked(inBucket)
}

// Rebalance examines per-shard busy-time shares accumulated since the last
// call (or since Open/ResetMetrics) and, while the busiest shard's share
// exceeds rebalanceThreshold (1.2) × the mean, migrates its hottest
// buckets to the least-loaded shard — skipping moves that would merely
// relocate the hotspot. It returns the migrations performed; an empty
// slice means the service is balanced (or a shard is down or partitioned,
// in which case rebalancing waits for recovery or a heal). Call it periodically from the serving
// loop; each call also starts a fresh measurement window.
func (s *Store) Rebalance() ([]MigrationStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frontDown {
		return nil, ErrFrontDown
	}
	start := s.cluster.NowNS()
	moves, err := s.rebalanceLocked()
	s.rec.Mark(obs.KindRebalance, -1, len(moves), start, s.cluster.NowNS())
	return moves, err
}

// rebalanceLocked is Rebalance's body; the caller holds the store lock.
func (s *Store) rebalanceLocked() ([]MigrationStats, error) {
	defer s.snapshotWindow()
	if len(s.shards) < 2 {
		return nil, nil
	}
	for _, sh := range s.shards {
		if sh.down || sh.partitioned {
			return nil, nil
		}
	}
	delta := make([]float64, len(s.shards))
	total := 0.0
	for i, sh := range s.shards {
		delta[i] = sh.busyNS - sh.churnNS - s.winBase[i]
		total += delta[i]
	}
	mean := total / float64(len(s.shards))
	if mean <= 0 {
		return nil, nil
	}

	const maxMoves = 4 // per check; the next window re-evaluates
	var moves []MigrationStats
	for len(moves) < maxMoves {
		hot, cold := 0, 0
		for i := range delta {
			if delta[i] > delta[hot] {
				hot = i
			}
			if delta[i] < delta[cold] {
				cold = i
			}
		}
		if delta[hot] <= rebalanceThreshold*mean {
			break
		}
		// Live-record counts per bucket on the hot shard, for the
		// destination-headroom check below (rebuilt per move: each
		// migration changes the indexes).
		counts := map[int]int{}
		for k := range s.shards[hot].view.all() {
			counts[s.bucketOf(k)]++
		}
		// Hottest bucket on the hot shard whose move strictly lowers the
		// makespan: a bucket so hot that the cold shard plus it would
		// exceed the hot shard's current share is left in place (moving
		// it would only relocate the bottleneck). Buckets that would eat
		// into the destination's last quarter of capacity are skipped too
		// — inbound copies must never starve client appends. Without
		// auto-compaction the headroom is raw log fill; with it
		// (Config.CompactAtFill), dead log records are reclaimable on
		// demand, so the binding constraint is the destination's live
		// set instead.
		cdst := s.shards[cold]
		fill := len(cdst.log)
		if s.cfg.CompactAtFill > 0 {
			fill = cdst.view.live()
		}
		best, bestW := -1, 0.0
		for b, owner := range s.shardMap {
			if owner != hot {
				continue
			}
			w := s.bucketWin[b]
			if w <= bestW || delta[cold]+w >= delta[hot] {
				continue
			}
			if fill+counts[b]+1 > cdst.cap-cdst.cap/4 {
				continue
			}
			best, bestW = b, w
		}
		if best < 0 {
			break
		}
		st, err := s.migrateBucket(best, cold)
		if err != nil {
			if errors.Is(err, ErrShardFull) {
				break
			}
			return moves, err
		}
		moves = append(moves, st)
		delta[hot] -= bestW
		delta[cold] += bestW
	}
	return moves, nil
}

// snapshotWindow starts a fresh rebalance measurement window.
//
//cxl0:locked mu
func (s *Store) snapshotWindow() {
	for i, sh := range s.shards {
		s.winBase[i] = sh.busyNS - sh.churnNS
	}
	for b := range s.bucketWin {
		s.bucketWin[b] = 0
	}
}
