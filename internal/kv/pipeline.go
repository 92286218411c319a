package kv

// The commit path's asynchronous half. A batched strategy has one commit
// path (store.go): flushBatch makes the open batch durable and returns
// it as a flight, ackFlight is its commit point. What differs with the
// pipeline depth is only *when* a full batch's commit point is reached:
//
//   - At depth 1, append commits in place (commitLocked): flush, ack on
//     the spot, and the flush cost sits inside the append's elapsed span,
//     so the shard's busy clock absorbs it before the next append can
//     start — commit latency gates append throughput.
//   - At depth K > 1, append calls issueFlight instead: the flush still
//     runs immediately on the simulated fabric (the records are durable
//     from that point — crash semantics depend on it) but its cost stays
//     off the shard's busy clock. The flight is enqueued with a
//     completion point (endBusy, in shard-busy-time coordinates) where
//     its cost has been fully absorbed. Shard-local (ranged) flushes
//     cover disjoint log ranges, so the device overlaps up to K of them
//     — the window K is the modeled device queue depth; a fabric-wide
//     GPF drains every cache in the system, so group flights serialize
//     on a per-shard flush lane (a global fence cannot overlap another).
//   - Appends keep streaming into the log while up to K flights are in
//     flight. The filling write returns Ack.Durable == false; the
//     batch's client acks fire when its flight *retires* — its own
//     commit point, in batch order (the flight queue is FIFO).
//   - A flight retires for free once the shard's busy clock passes its
//     completion point (the flush overlapped useful work); issuing into
//     a full pipeline or draining (Sync, Compact, Apply's commit point,
//     migration — every in-place commit drains first) stalls the shard
//     to the oldest flight's completion point — the only moments flush
//     cost can surface in the makespan.
//   - sh.acked — the acked-watermark — advances only at a commit point,
//     and the shard's view (view.go) takes a write only there: reads
//     serve a replay of the acknowledged records, so Get/MultiGet/Scan
//     keep serving a key's last acked state until the covering batch's
//     commit point. A read never observes a value a crash could take
//     back.
//
// A crash with flights in flight folds them back into the pending tail
// (foldFlights): their records are already durable on the medium, so
// Recover's scan validates and salvages them — the acked prefix always
// survives, and flushed-but-unretired batches are acknowledged by the
// recovery exactly like a salvaged pending batch. See docs/pipeline.md
// for the full protocol and its crash-safety argument.

// flight is one flushed batch: log slots [first, limit) were flushed
// over issueNS..ackNS on the simulated clock. A batch committed in place
// is acknowledged straight away (depth 1, no queue); an in-flight one
// occupies the shard's flush lane until endBusy on the shard's busy
// clock.
type flight struct {
	first, limit int
	// issueNS and ackNS bound the flush on the simulated clock (the
	// commit event's span); queueNS is how long the batch waited to
	// start flushing behind earlier flights (always 0 under ranged
	// commit, whose disjoint-range flushes start at issue; nonzero for
	// group flights queued behind an earlier global flush).
	issueNS, ackNS float64
	queueNS        float64
	// endBusy is the flight's completion point in shard-busy-time
	// coordinates: once sh.busyNS passes it, the flush fully overlapped
	// other work and the flight retires for free.
	endBusy float64
	// depth is the pipeline occupancy at issue (this flight included; 1
	// for an in-place commit).
	depth int
}

// pipelined reports whether a full batch is issued asynchronously: a
// pipeline depth above 1 under a batched strategy. It decides whether
// append issues a flight or commits in place, and whether the view takes
// a write at its write step or at its ack step (Store.keyMoved).
// Everything else in this file works off the flight queue, which is
// simply empty when nothing was ever issued.
func (s *Store) pipelined() bool {
	return s.cfg.PipelineDepth > 1 && s.persist.batched
}

// issueFlight flushes shard sh's open batch and enqueues it as an
// in-flight flight instead of acknowledging it in place. The flush runs
// now on the simulated fabric — the records are durable from this
// moment, which is what makes crash recovery of in-flight batches a
// plain salvage — but its cost lands on the shard's flush lane; the
// shard's busy clock only absorbs it if the pipeline is already full
// (stallRetire) or a drain point forces it (drainFlights).
//
//cxl0:locked mu
func (s *Store) issueFlight(sh *shard) error {
	for len(sh.flights) >= s.cfg.PipelineDepth {
		s.stallRetire(sh)
	}
	f, err := s.flushBatch(sh)
	if err != nil {
		return err
	}
	// When the flush starts depends on the rule's flush. Shard-local
	// flushes cover disjoint log ranges, so the device processes up to
	// PipelineDepth of them concurrently — the software window is the
	// modeled device queue depth, and a new flight's flush starts the
	// moment it is issued. A fabric-wide flush drains every cache in the
	// system: two of them cannot overlap, so such flights queue on the
	// shard's flush lane behind the previous one.
	lane := sh.busyNS
	if s.persist.flush == flushFabric && lane < sh.laneEnd {
		lane = sh.laneEnd
	}
	f.queueNS = lane - sh.busyNS
	f.endBusy = lane + (f.ackNS - f.issueNS)
	f.depth = len(sh.flights) + 1
	sh.laneEnd = f.endBusy
	sh.flights = append(sh.flights, f)
	s.ctr.PipelinedCommits++
	if f.depth > s.maxInFlight {
		s.maxInFlight = f.depth
	}
	return nil
}

// retireFlight retires the oldest flight: its batch's commit point (ack
// latency spans submit to flush completion plus lane wait; issue latency
// was recorded at append). The queue shifts in place — it holds at most
// PipelineDepth flights, so the copy is short — and keeps its buffer, so
// the next issueFlight never regrows it.
//
//cxl0:locked mu
func (s *Store) retireFlight(sh *shard) {
	f := sh.flights[0]
	sh.flights = sh.flights[:copy(sh.flights, sh.flights[1:])]
	s.ackFlight(sh, f)
}

// foldFlights folds every unretired record back into the pending tail
// when the shard's (or the front end's) machine crashes: in-flight
// flights were flushed to the medium at issue, so recovery's scan
// salvages them like any recovered pending batch — the acked prefix is
// exactly [0, acked). The flight queue and flush lane are volatile
// bookkeeping and die with the crash (the queue keeps its buffer); the
// view takes the client writes still waiting on their ack, so a down
// shard's view holds every write recovery may salvage.
//
//cxl0:locked mu
func (sh *shard) foldFlights() {
	sh.pending = len(sh.log) - sh.acked
	sh.flights = sh.flights[:0]
	sh.laneEnd = 0
	sh.view.takeRest(sh.log)
}

// rebaseFlights moves the flush lane and the in-flight flights'
// completion points to a busy clock whose origin moved forward by
// origin (resetClocks): left in the old coordinates, the next flight
// would queue behind a lane as long as everything reset away.
//
//cxl0:locked mu
func (sh *shard) rebaseFlights(origin float64) {
	for i := range sh.flights {
		sh.flights[i].endBusy -= origin
	}
	sh.laneEnd = max(0, sh.laneEnd-origin)
}

// retireReady retires every flight whose completion point the shard's
// busy clock has already passed — flushes that fully overlapped other
// work. Called at operation entry; free.
//
//cxl0:locked mu
func (s *Store) retireReady(sh *shard) {
	for len(sh.flights) > 0 && sh.flights[0].endBusy <= sh.busyNS {
		s.retireFlight(sh)
	}
}

// stallRetire force-retires the oldest flight, stalling the shard's
// busy clock to the flight's completion point first: the pipeline is
// full (or draining), so the remaining flush cost surfaces as wait.
//
//cxl0:locked mu
func (s *Store) stallRetire(sh *shard) {
	sh.stallTo(sh.flights[0].endBusy)
	s.retireFlight(sh)
}

// drainFlights retires every in-flight flush, stalling as needed — the
// pipeline's barrier, run at every drain point (Sync, Apply's commit,
// compaction, migration, recovery re-entry) before the open batch is
// committed.
//
//cxl0:locked mu
func (s *Store) drainFlights(sh *shard) {
	for len(sh.flights) > 0 {
		s.stallRetire(sh)
	}
}
