package kv

// One shard: its regions on the shard's machine (their format is
// medium.go's), the Go-side mirror of what was written there, the commit
// pipeline's bookkeeping and its clocks. What reads of the shard are
// served is its view (view.go).

import "cxl0/internal/core"

// rec mirrors one appended log record on the Go side (the service's own
// bookkeeping; authoritative content lives in simulated memory).
type rec struct {
	key, val core.Val
	startNS  float64 // simulated submit time, for ack-latency accounting
	// issueNS is when the record's write path finished (the append
	// returned to the client): issueNS-startNS is the issue latency,
	// ack latency the (possibly much later) commit point minus startNS.
	issueNS float64
	// move marks a move-marker record (bucket-migration bookkeeping, keyed
	// by bucket rather than client key; checksummed in the moveChkOf
	// domain). copied marks a migrated copy of a client record — real
	// (key, value) content, but its write was acknowledged on the source
	// shard, so it is excluded from ack-latency and acked-write counting.
	move, copied bool
}

// shard is one hash partition: a log region, a double-buffered snapshot
// region and a two-slot snapshot-epoch record on one machine, plus the
// volatile view of what reads of them are served (view.go).
type shard struct {
	view    view
	id      int
	machine core.MachineID
	cap     int
	// logR is the log (cap records). snaps are the two snapshot halves
	// (each cap records, addressed through snapR): the snapshot of epoch
	// e lives in half e%2, so writing the next snapshot never disturbs
	// the committed one. epochR is the two-slot snapshot-epoch record
	// (the compaction commit record, parity-addressed the same way).
	logR, epochR region
	snaps        [2]region

	log []rec // appended records, slot-ordered
	// snap mirrors the committed snapshot's records (slot-ordered live
	// puts; no tombstones, no markers) and epoch is the committed
	// snapshot epoch (0 = never compacted).
	snap  []rec
	epoch uint64
	// acked is the durability watermark: log records [0, acked) are
	// acknowledged durable. It anchors the pipelined commit path's
	// crash-safety argument, so it may only move under the store lock.
	//cxl0:guarded-by mu
	acked   int
	pending int    // batched records awaiting their batch's commit flush
	batchE  uint64 // shard-machine crash epoch when the open batch began
	// Asynchronous commit pipeline state (all empty at pipeline depth 1;
	// see pipeline.go). flights are the in-flight commit flushes, oldest
	// first; laneEnd is the flush lane's frontier in shard-busy-time
	// coordinates. What reads see of the watermark is the view's mark.
	//cxl0:guarded-by mu
	flights []flight
	//cxl0:guarded-by mu
	laneEnd float64
	down    bool
	// partitioned marks the shard's machine as cut off by a fabric
	// partition: everything is intact but unreachable, so operations fail
	// with ErrUnavailable (no recovery needed — Heal restores service).
	partitioned bool
	// busyNS is the simulated time this shard's operations consumed.
	//cxl0:guarded-by mu
	busyNS float64
	// churnNS is the part of busyNS spent on crash recovery, bucket
	// migration and log compaction — exogenous, one-off costs that say
	// nothing about where traffic is placed. The placement-skew metric and
	// the rebalancer's load windows exclude it.
	//cxl0:guarded-by mu
	churnNS float64
	// scan is the shard's run in a range read's merge (ScanStores): a
	// cursor over view, kept here so a read allocates nothing per shard.
	// Dead outside the read.
	scan cursor
}

// mirrorVal resolves an encoded slot to the value the service's Go-side
// mirror holds for it — what valLocOf's location holds on the medium.
func (sh *shard) mirrorVal(slot int) core.Val {
	if i, inSnap := sh.view.decode(slot); inSnap {
		return sh.snap[i].val
	}
	return sh.log[slot].val
}

// unavailable reports why the shard cannot serve: its machine is down
// (until Recover) or cut off by a partition (until Heal). Nil when it
// can.
func (sh *shard) unavailable() error {
	if sh.down {
		return ErrShardDown
	}
	if sh.partitioned {
		return ErrUnavailable
	}
	return nil
}

// catchUp moves the acked-watermark to the log tip once the log was
// committed whole, cut back or restarted: no batch is left open. It and
// Store.ackFlight are the only writers of acked (TestSeams).
//
//cxl0:locked mu
func (sh *shard) catchUp() {
	sh.acked = len(sh.log)
	sh.pending = 0
}

// charge is the one place the shard's clocks advance: span of simulated
// time the shard spent lands on its busy clock, and on its churn clock
// too when the work was churn (recovery, migration, compaction — or a
// fabric-wide flush serving one of them that stalled this shard).
//
//cxl0:locked mu
func (sh *shard) charge(span float64, churn bool) {
	sh.busyNS += span
	if churn {
		sh.churnNS += span
	}
}

// stallTo makes the shard wait until its busy clock reads t (a flight's
// completion point); a no-op when the clock is already past it.
//
//cxl0:locked mu
func (sh *shard) stallTo(t float64) {
	if t > sh.busyNS {
		sh.busyNS = t
	}
}

// resetClocks zeroes the busy and churn clocks. The flush lane and the
// in-flight flights' completion points live on the busy clock being
// discarded, so they are rebased with it.
//
//cxl0:locked mu
func (sh *shard) resetClocks() {
	sh.rebaseFlights(sh.busyNS)
	sh.busyNS, sh.churnNS = 0, 0
}
