// Package obs is the observability layer of the CXL0 stack: a
// zero-dependency, typed event bus plus rolling counters and latency
// histograms, spanning every layer from the shard logs up to the pooled
// router.
//
// The design splits into three pieces:
//
//   - Event is the typed record: op spans (Put/Get/Scan/MultiGet/Apply
//     with simulated start/end times and their shard route), commit
//     flushes, bucket-migration steps, compaction checkpoints,
//     crash/recover, and rebalance decisions.
//   - Bus is a ring-buffered publish/subscribe channel for Events.
//     Subscribers poll at their own pace; a subscriber that falls more
//     than one ring behind loses the overwritten events and its drop
//     counter says exactly how many. With no subscriber the ring just
//     wraps — publishing never blocks and never allocates per event
//     beyond the ring slot.
//   - Stats aggregates what flows through: per-op and per-shard latency
//     histograms (log2-bucketed, in simulated nanoseconds), event-kind
//     counters, and rolling per-second rates on the host clock.
//
// A Recorder ties a Bus and a Stats together behind one emission API and
// carries the attribution tag (cluster, global-shard base) of the layer
// it instruments. Instrumented code holds a possibly-nil *Recorder and
// pays a single nil-check when observability is off — no event is built,
// no lock is taken.
//
// Time semantics: span start/end times are simulated nanoseconds from the
// instrumented cluster's clock (deltas are simulated cost, the same
// currency as kv.Metrics busy time), while rolling rates run on the host
// clock (events per host second — the liveness signal a dashboard wants).
package obs

import "fmt"

// Kind classifies an Event.
type Kind int

const (
	// KindOp is an operation span: one client operation served by a
	// store (or a router fan-out parent/leg, linked by Span/Parent).
	KindOp Kind = iota
	// KindCommit is one commit flush of a shard's open batch (GPF or
	// ranged), carrying the count of client writes it acknowledged.
	KindCommit
	// KindMigration is one checkpoint of a bucket migration (Step names
	// it; "after-flip" completes the migration).
	KindMigration
	// KindCompaction is one checkpoint of a shard compaction (Step names
	// it; "after-reclaim" completes the compaction).
	KindCompaction
	// KindCrash is a shard machine failure.
	KindCrash
	// KindRecover is a completed shard recovery, carrying the salvaged
	// (acknowledged-at-recovery) and lost record counts.
	KindRecover
	// KindRebalance is one load-aware rebalance decision, carrying the
	// number of migrations it performed (possibly zero).
	KindRebalance
	// KindPartition is a shard machine cut off by a fabric partition
	// (operations routed to it fail with kv.ErrUnavailable until the
	// matching KindHeal).
	KindPartition
	// KindHeal is a partitioned shard machine reconnecting to the fabric.
	// No recovery follows: nothing was lost.
	KindHeal
	// KindDegrade is a change of a shard device's latency multiplier,
	// carrying the new factor in percent (N = 100 × factor; N == 100
	// restores full speed).
	KindDegrade
	// KindCacheHit is a served read answered from the front end's local
	// read cache (kv.Config.ReadCache) without a simulated Load, and
	// KindCacheMiss one that paid the Load and filled the cache. Both are
	// emitted only with the cache enabled, so a cache-off event stream is
	// byte-identical to a pre-cache one.
	KindCacheHit
	KindCacheMiss
	// KindSpeculative is one speculative prefetch fill: the predictor
	// warmed the cache with a key ahead of demand (see docs/caching.md).
	KindSpeculative

	numKinds
)

var kindNames = [...]string{
	"op", "commit", "migration", "compaction", "crash", "recover", "rebalance",
	"partition", "heal", "degrade", "hit", "miss", "speculative",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText puts the kind on the wire by name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Op names the operation of a KindOp event.
type Op int

const (
	// OpNone marks events that are not operation spans.
	OpNone Op = iota
	// OpPut is a single-key write.
	OpPut
	// OpDelete is a single-key tombstone write.
	OpDelete
	// OpGet is a point lookup.
	OpGet
	// OpMultiGet is a batched lookup.
	OpMultiGet
	// OpScan is a range scan.
	OpScan
	// OpApply is a write batch.
	OpApply

	numOps
)

var opNames = [...]string{"", "put", "delete", "get", "multiget", "scan", "apply"}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// MarshalText puts the op on the wire by name.
func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// Event is one typed observability record. Fields that do not apply to a
// kind hold their -1/zero defaults; Cluster and Shard use -1 for "not
// attributed" (a store outside a pool, an op spanning shards).
//
// The JSON tags are the wire form: kind and op by name; op, step, span,
// parent and epoch omitted when zero; every other field always present,
// so consumers need no per-kind schema.
type Event struct {
	// Seq is the bus-assigned publication sequence number (1, 2, ...).
	Seq uint64 `json:"seq"`
	// Kind classifies the event; Op names the operation for KindOp.
	Kind Kind `json:"kind"`
	Op   Op   `json:"op,omitempty"`
	// Step names the checkpoint for migration and compaction events
	// (the value of a kv.Step).
	Step string `json:"step,omitempty"`
	// Span identifies an operation span; Parent links a router fan-out
	// leg to its parent span. 0 = none.
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Cluster attributes the event to one pooled cluster (-1 outside a
	// pool or for a router-level parent span). Shard is the global shard
	// index (-1 when the event is not shard-scoped).
	Cluster int `json:"cluster"`
	Shard   int `json:"shard"`
	// Bucket, From and To describe a bucket migration (-1 otherwise).
	Bucket int `json:"bucket"`
	From   int `json:"from"`
	To     int `json:"to"`
	// Epoch is the snapshot epoch a compaction event belongs to.
	Epoch uint64 `json:"epoch,omitempty"`
	// N is the event's generic size: pairs returned by a scan, keys of a
	// multiget, records of a batch/migration/recovery, moves of a
	// rebalance.
	N int `json:"n"`
	// Acked is the number of client writes this event acknowledged
	// durable. Summed over a store's op-span, commit and recover events
	// it equals the store's Metrics.Acked — the ack-agreement invariant
	// kvtest pins.
	Acked int `json:"acked"`
	// Lost counts retired records: appended records a recovery found
	// destroyed, or slots a compaction's "after-reclaim" step retired.
	Lost int `json:"lost"`
	// Durable reports an op span's ack state at return (Ack.Durable).
	Durable bool `json:"durable"`
	// Depth is a commit event's pipeline occupancy at issue (1 for a
	// blocking commit; 0 on non-commit events) and QueueNS how long the
	// batch waited for the shard's flush lane behind earlier in-flight
	// flushes before its flush started (0 for a blocking commit, whose
	// span is pure flush). The event's StartNS..EndNS span is the flush
	// itself; queue wait precedes it.
	Depth   int     `json:"depth"`
	QueueNS float64 `json:"queue_ns"`
	// StartNS and EndNS are simulated nanoseconds; their delta is the
	// event's simulated cost. Instantaneous events carry StartNS == EndNS.
	StartNS float64 `json:"start_ns"`
	EndNS   float64 `json:"end_ns"`
}
