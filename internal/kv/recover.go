package kv

import (
	"fmt"

	"cxl0/internal/core"
)

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
	if i < 0 || i >= len(s.shards) {
		return RecoveryStats{}, fmt.Errorf("%w: shard %d not in [0,%d)", ErrOutOfRange, i, len(s.shards))
	}
	if s.frontDown {
		// The worker is homed on the front end; nothing can run until
		// it is back. RecoverFront recovers every shard's state itself.
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
// whatever machine crashed (RecoverFront also starts the new worker);
// clearing sh.down (when set) is also the caller's job.
//
//cxl0:locked mu
func (s *Store) recoverShard(sh *shard) (RecoveryStats, error) {
	i := sh.id
	t := s.worker
	appended := len(sh.log)
	ackedBefore := sh.acked
	start := s.cluster.NowNS()
	// The span is churn on every return path: a recovery the medium or
	// the fabric refuses has still spent its time on the shard.
	defer func() { sh.charge(s.cluster.NowNS()-start, true) }()

	// Resolve the snapshot-epoch record from the medium. It was MStored —
	// persistent the moment it was written — so it must agree with the
	// front-end's committed view; any divergence means the compaction
	// commit record was lost, which no crash can cause.
	epoch, snapLen, err := sh.readEpochRecord(t)
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
	snapScanned, snap := make([]rec, 0, snapLen), sh.snapR(epoch)
	for slot := 0; slot < snapLen; slot++ {
		w, err := snap.read(t, slot)
		if err != nil {
			return RecoveryStats{}, err
		}
		k, v := w[0], w[1]
		if w[2] != snapChkOf(slot, k, v, epoch) {
			return RecoveryStats{}, fmt.Errorf(
				"%w: shard %d snapshot record %d of %d (epoch %d) failed validation",
				ErrDurabilityViolation, i, slot, snapLen, epoch)
		}
		snapScanned = append(snapScanned, rec{key: k, val: v})
	}

	// Scan: accept log records while the medium holds exactly what the
	// front end wrote there — key, value, and the checksum in the record's
	// own domain (chkOf for client records, moveChkOf for move markers)
	// under the committed epoch. A partially persisted record differs in
	// some word; a pre-compaction leftover carries an older epoch's
	// checksum and cuts the scan exactly where the reclaimed log ends; a
	// checksum word changed into the other kind's domain does not pass for
	// that kind. Acknowledged records are all durable, so the cut can only
	// fall in the unacknowledged tail.
	cut := 0
	for cut < appended {
		w, err := sh.logR.read(t, cut)
		if err != nil {
			return RecoveryStats{}, err
		}
		if r := sh.log[cut]; w != [recWords]core.Val{r.key, r.val, r.chk(cut, epoch)} {
			break
		}
		cut++
	}
	scanned := sh.log[:cut]

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
	if err := sh.logR.retire(t, cut, appended); err != nil {
		return RecoveryStats{}, err
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
		s.churning = true
		err := s.flushRange(sh, sh.logR, ackedBefore, cut-ackedBefore)
		s.churning = false
		if err != nil {
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
		if _, out, _ := decodeMove(r.val, len(s.shards)); !out {
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
	sh.catchUp()

	// Recovery truncated the unacknowledged tail and rebuilt the shard's
	// visible state; any copy cached from the pre-crash state is suspect.
	// (crashLocked already snooped the shard's keys, but recoverShard also
	// runs crash-free via RecoverFront, and a migration redo above may
	// have flipped buckets — sweep again.)
	s.invalidateShardLocked(i)

	simNS := s.cluster.NowNS() - start
	s.ctr.DroppedPending += uint64(droppedPending)
	s.ctr.Recoveries++
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
