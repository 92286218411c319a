package kv

import (
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/obs"
)

// DB is the service surface of the durable KV layer: everything a client
// or harness needs to drive a key-value service built on the CXL0
// runtime, independent of how many shards — or how many independent
// coherence domains — stand behind it. *Store implements DB over one
// memsim cluster; pool.Router implements it over several pooled clusters.
// internal/workload and cmd/cxl0-bench drive any DB.
//
// The interface splits into a data plane and a control plane. The data
// plane carries client traffic and follows the acknowledgment contract of
// the package documentation: Ack.Durable reports persistence at return,
// batched strategies defer it to the batch's commit point. The control
// plane injects faults — shard crashes, partitions and degradation, and
// front-end failover — triggers placement changes, snapshots metrics and
// attaches observability. In this simulated world fault injection is part
// of the service surface, because crash/recovery behaviour is what the
// layer exists to get right.
type DB interface {
	// Put maps key to val (val >= 1), acknowledged per the configured
	// strategy's ack discipline.
	Put(key, val core.Val) (Ack, error)
	// Delete removes key by appending a tombstone record.
	Delete(key core.Val) (Ack, error)
	// Get returns the newest value mapped to key.
	Get(key core.Val) (core.Val, bool, error)
	// MultiGet looks up a set of keys in one call, returning one Lookup
	// per key in input order. Each key pays a Get's simulated read cost;
	// what the call amortizes is the routing: one MultiGetStores, under
	// the store's lock or every pooled cluster's, resolves them all.
	MultiGet(keys []core.Val) ([]Lookup, error)
	// Scan returns up to limit live pairs with lo <= key < hi, in global
	// key order across every shard (and every cluster).
	Scan(lo, hi core.Val, limit int) ([]Pair, error)
	// Apply applies a Batch of puts and deletes in order and acknowledges
	// it with one Ack at its commit point: Apply commits every shard the
	// batch touched, so on success the whole batch is durable
	// (Ack.Durable == true) no matter the strategy. Under the batched
	// strategies this maps a client batch onto group commit directly —
	// one flush per touched shard instead of one ack boundary per Batch
	// config records. Apply is an amortization unit, not a transaction:
	// on error, a prefix of the batch may already be applied (and, once a
	// later commit covers it, durable).
	Apply(b *Batch) (Ack, error)
	// Sync commits every shard's open batch (a no-op under the
	// per-operation strategies).
	Sync() error
	// Compact folds every shard's live index into a durable snapshot and
	// reclaims its log — Sync-style, one call covers the whole service
	// (per cluster on a pooled DB, with stats carrying global shard
	// indices). Shards with empty logs are skipped. Visibility is
	// unchanged across a Compact; what it reclaims are deleted,
	// overwritten and migrated-away records. See docs/compaction.md.
	Compact() ([]CompactionStats, error)

	// NumShards returns the shard count; a pooled DB reports the total
	// across clusters and addresses shards by global index (cluster-major:
	// cluster c's shard i is c*shardsPerCluster + i).
	NumShards() int
	// Crash fails shard i's machine; operations routed to it return
	// ErrShardDown until Recover.
	Crash(i int)
	// Recover restarts shard i after a crash, per the recovery procedure
	// of the package documentation.
	Recover(i int) (RecoveryStats, error)
	// Partition cuts shard i's machine off the fabric: operations routed
	// to it return ErrUnavailable (fan-out reads degrade to partial
	// results instead; see PartialResultError) until Heal. Unlike Crash
	// nothing is lost — no recovery follows a heal. While any shard of a
	// cluster is partitioned, that cluster's GPF-based commit strategies
	// (GPFEach, GroupCommit) cannot commit at all: a global flush must
	// drain every cache, so writes fail cluster-wide with ErrUnavailable.
	Partition(i int)
	// Heal reconnects a partitioned shard to the fabric, restoring
	// service immediately.
	Heal(i int)
	// Degrade sets shard i's device latency multiplier: every operation
	// served by the shard's memory charges factor× the modeled cost
	// (factor 1 restores full speed; anything but a finite number >= 1
	// reads as 1).
	// Degradation is pure cost — results and durability are unaffected.
	Degrade(i int, factor float64)
	// Health reports each shard's fault state in global shard order.
	Health() []ShardHealth
	// CrashFront fails the front-end machine(s) — the coordinator each
	// store's worker is homed on — destroying their cached (unflushed)
	// batches. Every subsequent operation returns ErrFrontDown until
	// RecoverFront (see failover.go and docs/pipeline.md).
	CrashFront()
	// RecoverFront restarts the front end and re-attaches every healthy
	// shard by replaying its durable log, salvaging flushed batches and
	// dropping whatever lived only in the front's cache: one
	// RecoveryStats per shard re-attached (crashed shards are skipped —
	// recover them with Recover afterwards). It refuses with
	// ErrUnavailable while any shard is partitioned: re-attachment must
	// read the shard's medium.
	RecoverFront() ([]RecoveryStats, error)
	// FrontDown reports whether the front end is currently crashed.
	FrontDown() bool
	// Rebalance runs one load-aware rebalance check (shard-map bucket
	// migration within each cluster; see docs/rebalancing.md).
	Rebalance() ([]MigrationStats, error)
	// Metrics snapshots the service counters; a pooled DB aggregates
	// across clusters (counters summed, per-shard series concatenated in
	// global shard order). Its sample series are read-only (see Metrics).
	Metrics() Metrics
	// ResetMetrics zeroes counters and clocks while keeping stored data.
	ResetMetrics()
	// NowNS returns the total simulated time consumed so far — one
	// cluster's clock, or the sum of a pool's independent clocks. Deltas
	// around an operation measure its simulated cost.
	NowNS() float64
	// Observe attaches an observability recorder (nil detaches). Observing
	// only reads the simulated clocks: an observed run is bit-identical
	// to an unobserved one.
	Observe(rec *obs.Recorder)
}

// Lookup is one MultiGet result.
type Lookup struct {
	Key   core.Val `json:"key"`
	Val   core.Val `json:"val"`
	Found bool     `json:"found"`
}

// batchOp is one operation of a Batch: a put of val >= 1, or a delete
// (val 0, the tombstone value). The kind is tracked explicitly rather
// than inferred from val so that an invalid Put(key, 0) stays a put —
// and fails Apply's validation with ErrBadKey, exactly like Store.Put —
// instead of silently turning into a delete.
type batchOp struct {
	key, val core.Val
	del      bool
}

// Batch is an ordered list of puts and deletes applied as one unit by
// DB.Apply. Order matters: a put followed by a delete of the same key
// leaves the key deleted. The zero Batch is empty and ready to use.
type Batch struct {
	ops []batchOp
}

// Put appends a put of key to val (val >= 1; validated by Apply).
func (b *Batch) Put(key, val core.Val) *Batch {
	b.ops = append(b.ops, batchOp{key: key, val: val})
	return b
}

// Delete appends a delete of key.
func (b *Batch) Delete(key core.Val) *Batch {
	b.ops = append(b.ops, batchOp{key: key, del: true})
	return b
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// ShardFullError is the concrete error behind ErrShardFull: it identifies
// the exhausted shard and how full its log is, so a failure deep in a
// bench matrix names the shard and fill level instead of just "log full".
// errors.Is(err, ErrShardFull) matches it; errors.As extracts the fields.
type ShardFullError struct {
	// Shard is the exhausted shard's index, local to its Store; a pooled
	// router wraps the error with the owning cluster's identity
	// ("pool: cluster N: ..."), which together with this names the shard
	// globally.
	Shard int
	// Appended and Capacity are the shard log's current record count and
	// limit — except when Live is set, where Appended counts live
	// records instead.
	Appended, Capacity int
	// Need is how many records the failed operation would have appended
	// (with Live set: how many live records exceed the fold capacity).
	Need int
	// Live marks the compaction-time form of the error: the shard's live
	// record set itself exceeds Capacity, so no amount of log
	// reclamation can help. Only raised with auto-compaction enabled
	// (Config.CompactAtFill) or by an explicit Compact; the plain form
	// means the append-only log ran out of slots.
	Live bool
}

// Fill returns the shard's fill fraction in [0, 1] — log fill, or live
// fill when Live is set (then possibly above 1, clamped by nothing).
func (e *ShardFullError) Fill() float64 {
	if e.Capacity <= 0 {
		return 1
	}
	return float64(e.Appended) / float64(e.Capacity)
}

func (e *ShardFullError) Error() string {
	if e.Live {
		return fmt.Sprintf("%v: shard %d holds %d live records, capacity %d — live set cannot fold, %d over",
			ErrShardFull, e.Shard, e.Appended, e.Capacity, e.Need)
	}
	return fmt.Sprintf("%v: shard %d holds %d/%d records (%.0f%% full), needs %d more slot(s)",
		ErrShardFull, e.Shard, e.Appended, e.Capacity, 100*e.Fill(), e.Need)
}

// Unwrap keeps errors.Is(err, ErrShardFull) working.
func (e *ShardFullError) Unwrap() error { return ErrShardFull }

// ShardHealth is one shard's fault state, as reported by DB.Health.
type ShardHealth struct {
	// Shard is the shard's index (global under a pooled router).
	Shard int `json:"shard"`
	// Down reports a crashed, not-yet-recovered shard machine.
	Down bool `json:"down"`
	// Partitioned reports a shard machine cut off by a fabric partition.
	Partitioned bool `json:"partitioned"`
	// DegradeFactor is the shard device's latency multiplier (1 = full
	// speed).
	DegradeFactor float64 `json:"degrade_factor"`
}

// PartialResultError is the typed partial-result error of the fan-out
// reads: MultiGet and Scan return the reachable shards' results together
// with this error when one or more shards were unreachable behind a
// fabric partition. errors.Is(err, ErrUnavailable) matches it. The crash
// path is deliberately different: a down shard holding relevant keys
// still fails the whole call with ErrShardDown, because a crash may have
// destroyed unacknowledged records — partial semantics are only safe when
// the missing data is known intact, which a partition guarantees.
type PartialResultError struct {
	// Op names the degraded operation ("multiget" or "scan").
	Op string
	// Unavailable lists the unreachable shards the call skipped, in
	// ascending order (global indices under a pooled router).
	Unavailable []int
	// Missing counts what the skipped shards withheld: keys routed to
	// them (multiget) or in-range live index entries (scan).
	Missing int
}

func (e *PartialResultError) Error() string {
	return fmt.Sprintf("%v: %s degraded to a partial result: %d entr(ies) on unreachable shard(s) %v",
		ErrUnavailable, e.Op, e.Missing, e.Unavailable)
}

// Unwrap keeps errors.Is(err, ErrUnavailable) working.
func (e *PartialResultError) Unwrap() error { return ErrUnavailable }

// Store implements the full DB surface.
var _ DB = (*Store)(nil)
