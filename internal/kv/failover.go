package kv

// Front-end failover. The store's one worker thread is homed on the
// front-end machine, so the front's cache is where batched strategies
// stage their open batches (LStore lands in the worker's home cache). A
// front crash therefore destroys exactly the state that was never
// flushed: open batches staged in its cache, plus the volatile pipeline
// bookkeeping (flight queue, flush lane; each shard's view takes the
// writes still waiting, as on a shard crash). The shards'
// media — logs, snapshots, epoch records — are untouched, and so are
// batches already flushed by the commit pipeline.
//
// RecoverFront restarts the front and re-attaches each shard by
// replaying its durable log through the same recovery core a crashed
// shard uses (recoverShard): scan the medium, cut at the first invalid
// record, salvage the durable pending tail — which includes every
// in-flight pipelined flush, flushed at issue — and drop what lived
// only in the front's cache. See docs/pipeline.md for the full argument.

import (
	"fmt"

	"cxl0/internal/obs"
)

// CrashFront fails the front-end machine. Every client operation enters
// through the front end, so the entire service surface — data plane and
// placement/compaction control plane — fails with ErrFrontDown until
// RecoverFront. Unacknowledged batches staged in the front's cache are
// destroyed; in-flight pipelined flushes already hit the shards' media
// and survive. A no-op if the front is already down.
func (s *Store) CrashFront() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frontDown {
		return
	}
	s.cluster.Crash(s.front)
	s.frontDown = true
	for _, sh := range s.shards {
		// The re-attachment replay decides what survived.
		sh.foldFlights()
	}
	// The read cache is front-end DRAM, the most volatile state of all:
	// it dies with the front's machine, wholesale.
	s.cache.invalidateAllLocked()
	now := s.cluster.NowNS()
	s.rec.Mark(obs.KindCrash, -1, 0, now, now)
}

// FrontDown reports whether the front-end machine is currently crashed.
func (s *Store) FrontDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frontDown
}

// RecoverFront restarts the front-end machine and re-attaches every
// healthy shard by replaying its durable log (see the file comment). It
// returns one RecoveryStats per re-attached shard, in shard order.
// Crashed shards are skipped — their machines need their own Recover
// once the front is back. Partitioned shards refuse the whole
// re-attachment: the replay must read every shard's medium, and a
// partitioned medium is unreachable. A no-op when the front is up.
func (s *Store) RecoverFront() ([]RecoveryStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.frontDown {
		return nil, nil
	}
	for _, sh := range s.shards {
		if sh.partitioned {
			return nil, fmt.Errorf(
				"%w: shard %d is partitioned; front-end re-attachment must read every shard's medium — heal first",
				ErrUnavailable, sh.id)
		}
	}
	s.cluster.Recover(s.front)
	// The old worker died with the front; its successor runs every
	// shard's work from here on.
	var err error
	if s.worker, err = s.cluster.NewThread(s.front); err != nil {
		return nil, err
	}
	var all []RecoveryStats
	for _, sh := range s.shards {
		if sh.down {
			continue
		}
		stats, err := s.recoverShard(sh)
		if err != nil {
			return all, err
		}
		all = append(all, stats)
	}
	s.frontDown = false
	return all, nil
}
