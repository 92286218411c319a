package obs

import "sync/atomic"

// Recorder is the emission facade instrumented code holds: one Bus (may
// be nil — stats only), one Stats (may be nil — events only) and the
// attribution tag of the instrumented layer. A store outside a pool runs
// the untagged recorder (cluster -1, shard indices pass through); a
// router tags one derived recorder per cluster with Tagged, so every
// store-level event carries its cluster and global shard index while all
// of them share one bus, one aggregate and one span-ID sequence.
//
// Every method on a nil *Recorder is a no-op, but hot paths should guard
// with an explicit nil check so argument evaluation is skipped too.
type Recorder struct {
	bus       *Bus
	stats     *Stats
	cluster   int
	shardBase int
	spanSeq   *atomic.Uint64
}

// NewRecorder ties a bus and a stats aggregate together, untagged
// (cluster -1, shard indices pass through). Either may be nil.
func NewRecorder(bus *Bus, stats *Stats) *Recorder {
	return &Recorder{bus: bus, stats: stats, cluster: -1, spanSeq: &atomic.Uint64{}}
}

// Tagged derives a recorder attributing its events to cluster, with
// local shard indices lifted by shardBase into the pool's global index
// space. The derived recorder shares the bus, stats and span sequence.
func (r *Recorder) Tagged(cluster, shardBase int) *Recorder {
	if r == nil {
		return nil
	}
	d := *r
	d.cluster = cluster
	d.shardBase = shardBase
	return &d
}

// NewSpan allocates a fresh span ID (shared across derived recorders, so
// parent/leg links never collide).
func (r *Recorder) NewSpan() uint64 {
	if r == nil {
		return 0
	}
	return r.spanSeq.Add(1)
}

// shard lifts a local shard index into the global space (-1 passes
// through).
func (r *Recorder) shard(local int) int {
	if local < 0 {
		return -1
	}
	return r.shardBase + local
}

// publish hands a finished event to the bus, if there is one.
func (r *Recorder) publish(e Event) {
	if r.bus != nil {
		r.bus.Publish(e)
	}
}

// base returns an event skeleton with the recorder's tag and the
// unattributed defaults filled in.
func (r *Recorder) base(kind Kind) Event {
	return Event{Kind: kind, Cluster: r.cluster, Shard: -1, Bucket: -1, From: -1, To: -1}
}

// OpSpan records one served operation: a span event on the bus and a
// latency sample (endNS-startNS, simulated) in the per-op and per-shard
// histograms. shard is the store-local shard index (-1 for ops spanning
// shards); n is the op's size (pairs scanned, keys resolved, batch
// length); acked is the number of client writes the op acknowledged
// durable at return (0 under the batched strategies, where acks ride
// commit events instead). Returns the span ID.
func (r *Recorder) OpSpan(op Op, shard int, startNS, endNS float64, n, acked int, durable bool) uint64 {
	if r == nil {
		return 0
	}
	g := r.shard(shard)
	if r.stats != nil {
		r.stats.recordOp(op, g, endNS-startNS)
	}
	span := r.NewSpan()
	e := r.base(KindOp)
	e.Op, e.Span, e.Shard = op, span, g
	e.N, e.Acked, e.Durable = n, acked, durable
	e.StartNS, e.EndNS = startNS, endNS
	r.publish(e)
	return span
}

// FanOut records a router-level parent span over a fan-out operation
// (MultiGet/Scan/Apply). It is events-only: the per-cluster store spans
// already feed the histograms, and double-counting the parent would
// inflate them. Acked is always 0 on the parent — the store-level events
// carry the acks.
func (r *Recorder) FanOut(span uint64, op Op, startNS, endNS float64, n int) {
	if r == nil {
		return
	}
	e := r.base(KindOp)
	e.Op, e.Span = op, span
	e.N = n
	e.StartNS, e.EndNS = startNS, endNS
	r.publish(e)
}

// FanOutLeg records one cluster's leg of a fan-out operation, linked to
// the parent span. Events-only, like FanOut.
func (r *Recorder) FanOutLeg(parent uint64, op Op, cluster int, startNS, endNS float64, n int) {
	if r == nil {
		return
	}
	e := r.base(KindOp)
	e.Op, e.Span, e.Parent = op, r.NewSpan(), parent
	e.Cluster = cluster
	e.N = n
	e.StartNS, e.EndNS = startNS, endNS
	r.publish(e)
}

// Commit records one commit flush of a shard's open batch: n pending
// records flushed, acked of them client writes acknowledged at this
// commit point (migration copy flushes commit with acked 0). depth is
// the commit pipeline's occupancy at issue (1 for a blocking commit)
// and queueNS the batch's wait for the shard's flush lane before the
// startNS..endNS flush span began (0 for a blocking commit). The
// queue-wait and flush-span samples feed the commit-latency histograms.
func (r *Recorder) Commit(shard int, startNS, endNS float64, n, acked, depth int, queueNS float64) {
	if r == nil {
		return
	}
	if r.stats != nil {
		r.stats.recordCommit(queueNS, endNS-startNS)
	}
	e := r.base(KindCommit)
	e.Shard = r.shard(shard)
	e.N, e.Acked = n, acked
	e.Depth, e.QueueNS = depth, queueNS
	e.StartNS, e.EndNS = startNS, endNS
	r.publish(e)
}

// WriteLatency records one acknowledged client write's latency pair:
// ackNS from submit to durable acknowledgment (including any commit-
// pipeline lane wait) and issueNS from submit to the write path's
// return. Stats-only — the covering op-span or commit event already
// represents the write on the bus.
func (r *Recorder) WriteLatency(ackNS, issueNS float64) {
	if r == nil || r.stats == nil {
		return
	}
	r.stats.recordWrite(ackNS, issueNS)
}

// Mark records one event of a plain kind — one that carries nothing but
// a shard, a size and a span — and bumps the kind's counter. The plain
// kinds are KindCrash, KindPartition, KindHeal, KindCacheHit,
// KindCacheMiss and KindSpeculative (n 0, startNS == endNS), KindDegrade
// (n = the device's new latency factor × 100, so 100 is full speed
// restored) and KindRebalance (shard -1, n = migrations performed,
// possibly 0 — a "balanced" decision is a signal too; the moves' detail
// rides their MigrationStep events). shard is the store-local shard
// index, -1 when the event is not shard-scoped (a front-end crash).
func (r *Recorder) Mark(kind Kind, shard, n int, startNS, endNS float64) {
	if r == nil {
		return
	}
	if r.stats != nil {
		r.stats.count(kind)
	}
	e := r.base(kind)
	e.Shard = r.shard(shard)
	e.N = n
	e.StartNS, e.EndNS = startNS, endNS
	r.publish(e)
}

// Recover records a completed shard recovery: recovered surviving log
// records, salvaged client writes acknowledged by the recovery (pending
// batched writes the scan validated), lost records destroyed by the
// crash.
func (r *Recorder) Recover(shard int, startNS, endNS float64, recovered, salvaged, lost int) {
	if r == nil {
		return
	}
	if r.stats != nil {
		r.stats.count(KindRecover)
	}
	e := r.base(KindRecover)
	e.Shard = r.shard(shard)
	e.N, e.Acked, e.Lost = recovered, salvaged, lost
	e.StartNS, e.EndNS = startNS, endNS
	r.publish(e)
}

// MigrationStep records one bucket-migration checkpoint; step is the
// kv.Step value, records the live records being moved. done marks the
// step that completes the migration, which bumps the Migrations counter.
func (r *Recorder) MigrationStep(step string, done bool, bucket, from, to, records int, nowNS float64) {
	if r == nil {
		return
	}
	if r.stats != nil && done {
		r.stats.count(KindMigration)
	}
	e := r.base(KindMigration)
	e.Step = step
	e.Bucket, e.From, e.To = bucket, r.shard(from), r.shard(to)
	e.N = records
	e.StartNS, e.EndNS = nowNS, nowNS
	r.publish(e)
}

// CompactionStep records one compaction checkpoint; step is the
// kv.Step value, live the folded record count, reclaimed the slots
// retired (known only at the step that completes the compaction, marked
// done, which bumps the Compactions counter; earlier steps pass 0).
// Reclaimed slots ride the Lost field — records retired, like a
// recovery's.
func (r *Recorder) CompactionStep(step string, done bool, shard int, epoch uint64, live, reclaimed int, nowNS float64) {
	if r == nil {
		return
	}
	if r.stats != nil && done {
		r.stats.count(KindCompaction)
	}
	e := r.base(KindCompaction)
	e.Step = step
	e.Shard = r.shard(shard)
	e.Epoch = epoch
	e.N, e.Lost = live, reclaimed
	e.StartNS, e.EndNS = nowNS, nowNS
	r.publish(e)
}
