// Package kv is a sharded, durable key-value service built on the CXL0
// runtime: the first subsystem of this repository that *serves traffic*
// against the simulated disaggregated-memory cluster rather than checking
// or measuring the model itself.
//
// A Store shards keys by hash across the machines of a memsim.Cluster: each
// shard owns a contiguous region of one machine's disaggregated heap and
// holds an append-only record log there — the on-"medium" representation —
// plus a volatile Go-side index (key → newest record slot) standing in for
// the DRAM hashtable a real node would keep. Every log access goes through
// memsim primitives, so each operation pays the latency model's cost on the
// simulated clock and obeys the paper's crash semantics.
//
// # The DB interface
//
// The service surface is the DB interface, not the concrete Store: clients
// and harnesses (internal/workload, cmd/cxl0-bench) program against DB —
// point ops, the batch ops MultiGet and Apply, Scan, Sync, and the
// crash/recover/rebalance/metrics control plane — and *Store is one
// implementation of it over a single cluster. pool.Router implements the
// same interface over several pooled clusters (capacity scaling past one
// coherence domain; see docs/pooling.md), which is why the surface is an
// interface: code written against DB runs unchanged on either. Apply takes
// a Batch of puts/deletes and acknowledges it with one Ack at its commit
// point — the batch maps directly onto the batched persistence strategies
// below — and MultiGet amortizes routing across a set of point lookups.
//
// # Persistence strategies
//
// How an appended record becomes durable — and therefore when the write is
// acknowledged — is pluggable, mirroring the idioms of internal/ds and §6
// of the paper:
//
//	MStoreEach   — every record word is an MStore: persistent on return,
//	               paying the full memory round trip per word.
//	StoreFlush   — LStore each word, then RFlush it: the paper's
//	               LStore+RFlush idiom.
//	RStoreFlush  — RStore pushes each word into the owner's cache, then
//	               RFlush persists it.
//	GPFEach      — LStore the record, then issue one Global Persistent
//	               Flush per operation: correct and simple, and the baseline
//	               the batched strategies amortize.
//	GroupCommit  — LStore records as they arrive (visible immediately) and
//	               issue a single GPF per batch of Batch writes: group
//	               commit. The per-operation flush cost is divided by the
//	               batch size, but a GPF drains the whole fabric, so each
//	               commit also stalls every other shard.
//	RangedCommit — group commit over the ranged persistent flush: one
//	               RFlushRange covering exactly the batch's log lines. The
//	               commit involves only the shard's own device, so its cost
//	               is charged shard-locally and per-operation commit cost
//	               stays flat as shards are added.
//
// See docs/persistence.md for the full strategy × hardware-variant matrix
// with per-strategy soundness arguments and recovery procedures.
//
// # The durability and acknowledgment contract
//
// Every write returns an Ack. The contract, precisely:
//
//   - Ack.Durable reports whether the record was persistent — present in
//     its owner's physical memory — at the moment the call returned.
//   - For MStoreEach, StoreFlush, RStoreFlush and GPFEach, Ack.Durable is
//     true on every successful write.
//   - For the deferred strategies (GroupCommit, RangedCommit: the ones
//     whose Batched() is true), a write is acknowledged durable only at
//     its batch's commit point, which is reached when the Batch-th write
//     of the batch arrives (that write returns Ack.Durable == true,
//     covering the whole batch) or when Sync is called. Before that the
//     write returned Ack.Durable == false: it is visible to Get/Scan (like
//     an unflushed RStore'd value in litmus test 1) but a shard crash may
//     legitimately destroy it.
//
// The invariant all six strategies maintain: a write acknowledged durable
// — via Ack.Durable, a later commit, or Sync — survives every subsequent
// crash/recovery sequence. Unacknowledged writes may be dropped by
// recovery (reported as DroppedPending), never corrupted into a different
// value.
//
// # Crash recovery
//
// Records carry a per-slot checksum word covering (slot, key, value), so a
// recovery scan can distinguish fully persisted records from the partial
// leftovers of a crash. Recover scans the log in slot order until the first
// invalid record, truncates everything after the cut (zeroing checksum
// words with MStore, exactly like a log truncation), rebuilds the index
// from the scanned records, and re-persists the recovered prefix so it also
// survives the next crash: one GPF under the GPF-based strategies, or —
// under RangedCommit — one RFlushRange over the shard's own recovered log
// lines, keeping even recovery cost off the rest of the fabric. The
// simulated time spent recovering is the recovery-time metric reported by
// RecoveryStats. A checksum cut falling inside the acknowledged prefix can
// only mean the durability invariant was broken; Recover reports it as
// ErrDurabilityViolation instead of silently truncating acknowledged data.
//
// # Log compaction and checkpointing
//
// Shard logs are append-only, so without reclamation every shard
// eventually exhausts its Capacity records. Compaction (compact.go,
// docs/compaction.md) folds a shard's live index into a durable snapshot
// — written into a double-buffered snapshot region with the store's own
// persistence strategy (one RFlushRange over the snapshot under
// RangedCommit, one GPF otherwise) — commits it with a durable
// snapshot-epoch record (MStored, checksum word last: the commit point,
// mirroring migration's move-out record), and reclaims the whole log for
// reuse. Record checksums are bound to the snapshot epoch, so reclaimed
// records can never validate again; deleted, overwritten and
// migrated-away records simply do not survive the fold. Recover resolves
// the epoch record, revalidates the snapshot, and scans the log tail on
// top under the usual wipe/redo/ownership rules. Config.CompactAtFill
// triggers compaction automatically at a log-fill threshold, converting
// ShardFullError into a condition that only fires when the live set
// itself exceeds Capacity; DB.Compact compacts on demand. Compaction
// busy-time is charged as churn, like recovery and migration.
//
// # Shard map and load-aware rebalancing
//
// Keys do not hash to shards directly: they hash to one of max(128,
// Shards) virtual buckets (rounded up to a multiple of Shards), and a
// shard map assigns each bucket to a shard (bucket b starts on shard b
// mod Shards). The indirection is what makes placement a runtime
// decision: MigrateBucket moves one bucket's live records to another
// shard — copied durably with the store's own persistence strategy
// (under RangedCommit, one ranged flush over the copied records) and made
// crash-safe by move-marker records in both shards' logs — and Rebalance
// watches per-shard busy-time shares, migrating the hottest buckets off a
// shard whose share exceeds 1.2 × the mean. Under a zipfian mix this
// turns the static hash layout's hot-shard makespan bottleneck into a
// balanced one, and because RangedCommit charges commit
// cost shard-locally, migrating a hot bucket sheds its commit cost too —
// something a fabric-wide GPF commit cannot do. See docs/rebalancing.md
// for the full migration protocol and its crash-safety argument.
package kv

import (
	"errors"
	"fmt"
	"strings"

	"cxl0/internal/core"
)

// ErrShardDown is returned for operations routed to a crashed shard that
// has not been recovered yet.
var ErrShardDown = errors.New("kv: shard machine is down")

// ErrUnavailable is returned for operations routed to a shard whose
// machine is cut off by a fabric partition. Distinct from ErrShardDown:
// the shard's memory, caches and log are intact — nothing was lost and no
// recovery is needed — the fabric just cannot reach it until Heal. Reads
// that fan out over shards (MultiGet, Scan) degrade gracefully instead:
// they return the reachable shards' results plus a *PartialResultError
// (which unwraps to this sentinel) naming the unreachable shards.
var ErrUnavailable = errors.New("kv: shard unreachable (fabric partition)")

// ErrShardFull is returned when a shard's log region is exhausted. With
// Config.CompactAtFill set the store compacts instead, and the error is
// only raised when the live record set itself exceeds the shard's
// capacity (see docs/compaction.md).
var ErrShardFull = errors.New("kv: shard log full")

// ErrBadKey is returned for negative keys or non-positive values (value 0
// is reserved for delete tombstones, negative values for the runtime).
var ErrBadKey = errors.New("kv: keys must be >= 0 and values >= 1")

// ErrFrontDown is returned for operations submitted while the front-end
// machine is crashed: every client operation enters through the front
// end, so a front crash takes the whole service surface down — shard
// machines, their logs and their caches stay intact — until RecoverFront
// restarts it and re-attaches the shards (replaying each durable log to
// recover in-flight batches; see docs/pipeline.md).
var ErrFrontDown = errors.New("kv: front-end machine is down")

// ErrDurabilityViolation is returned by Recover when the checksum cut falls
// inside the acknowledged prefix: an acknowledged — and therefore durable —
// record failed to validate, which no crash should be able to cause. It
// indicates a broken persistence strategy (or corrupted medium), not a
// recoverable condition.
var ErrDurabilityViolation = errors.New("kv: durability violation: acknowledged record lost")

// ErrUnknownStrategy is returned when a Config carries (or a name parses
// to) a Strategy outside the declared set. Raise sites wrap it with the
// offending value; dispatch switches stay exhaustive, so it can only
// fire on a Config built with an out-of-range literal.
var ErrUnknownStrategy = errors.New("kv: unknown strategy")

// ErrOutOfRange is returned when a caller-supplied shard or bucket index
// is outside the store's topology (control-plane methods like
// CompactShard, MigrateBucket and Recover take raw indices), and when a
// write or flush of a shard's medium names a record past its region.
var ErrOutOfRange = errors.New("kv: index out of range")

// Strategy selects how writes reach persistence and when they are
// acknowledged.
type Strategy int

const (
	// MStoreEach writes every record word with MStore.
	MStoreEach Strategy = iota
	// StoreFlush writes with LStore and RFlushes each word.
	StoreFlush
	// RStoreFlush pushes words into the owner's cache with RStore, then
	// persists them with RFlush.
	RStoreFlush
	// GPFEach follows every record with one Global Persistent Flush.
	GPFEach
	// GroupCommit batches writes and issues one GPF per Batch records.
	GroupCommit
	// RangedCommit batches writes like GroupCommit but commits each batch
	// with one ranged persistent flush (RFlushRange) over exactly the
	// batch's log lines. Only the shard's own device participates, so the
	// commit cost is charged shard-locally instead of stalling the fabric.
	RangedCommit
)

// row returns s's row of the strategy table (persist.go), or
// ErrUnknownStrategy for a Strategy outside the declared set.
func (s Strategy) row() (rule, error) {
	if s < 0 || int(s) >= len(rules) {
		return rule{}, fmt.Errorf("%w: Strategy(%d)", ErrUnknownStrategy, int(s))
	}
	return rules[s], nil
}

func (s Strategy) String() string {
	if r, err := s.row(); err == nil {
		return r.name
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all persistence strategies.
var Strategies = []Strategy{MStoreEach, StoreFlush, RStoreFlush, GPFEach, GroupCommit, RangedCommit}

// ParseStrategy converts a strategy name (as printed by String, matched
// case-insensitively) back into a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	normalized := strings.ToLower(strings.TrimSpace(name))
	for i, r := range rules {
		if r.name == normalized {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownStrategy, name, Strategies)
}

// Batched reports whether s enqueues writes and commits them per batch:
// such a write is acknowledged durable at its batch's commit point, every
// other strategy's when it returns (see the package documentation).
func (s Strategy) Batched() bool {
	r, _ := s.row()
	return r.batched
}

// DefaultBatch is the batch size the batched strategies (GroupCommit,
// RangedCommit) use when Config.Batch is zero.
const DefaultBatch = 32

// minBuckets is the least virtual-bucket count of the shard map (see
// bucketCount). More buckets give the rebalancer finer migration
// granularity (down to isolating a single hot key's bucket); the map
// itself is a front-end DRAM array, so the count costs nothing on the
// simulated clock.
const minBuckets = 128

// bucketCount is the shard map's bucket count over shards shards:
// minBuckets or shards, whichever is larger, rounded up to a multiple of
// shards. Then the initial layout (bucket b on shard b mod shards) routes
// every key to exactly the shard static hash-mod-shards routing would,
// and the map only diverges once migrations happen.
func bucketCount(shards int) int {
	n := max(minBuckets, shards)
	return (n + shards - 1) / shards * shards
}

// rebalanceThreshold is the busy-share imbalance (max/mean over the
// window since the last check) above which Rebalance starts migrating
// buckets.
const rebalanceThreshold = 1.2

// Config describes a Store.
type Config struct {
	// Shards is the number of shard machines (default 1).
	Shards int
	// Capacity is the number of log records per shard (default 4096). It
	// is also the shard's live-set capacity: compaction folds at most
	// Capacity live records into a snapshot.
	Capacity int
	// CompactAtFill enables automatic log compaction: when a shard's log
	// fill fraction reaches CompactAtFill, the next append first folds the
	// live index into a durable snapshot and reclaims the log (see
	// docs/compaction.md) instead of pressing on toward ShardFullError.
	// 0 (the default) disables auto-compaction — explicit Compact stays
	// available; values above 1 are clamped to 1.
	CompactAtFill float64
	// Strategy selects the persistence strategy.
	Strategy Strategy
	// Batch is the commit batch size of the batched strategies
	// (default 32; ignored by the per-operation strategies).
	Batch int
	// PipelineDepth is the number of commit flushes a shard may have in
	// flight at once under the batched strategies (GroupCommit,
	// RangedCommit). 1 (the default) is the classic blocking commit: the
	// batch-filling write waits for its flush and returns Ack.Durable ==
	// true. Depths above 1 enable the asynchronous commit pipeline:
	// appends keep streaming while up to PipelineDepth flushes are in
	// flight, every batched write returns Ack.Durable == false, acks fire
	// in batch order at each batch's own commit point, and reads are
	// gated by the shard's acked-watermark (a Get never returns a value
	// newer than the watermark; see docs/pipeline.md). Ignored by the
	// per-operation strategies.
	PipelineDepth int
	// Variant selects the hardware model flavour (Base, PSN, LWB).
	Variant core.Variant
	// EvictEvery injects background cache eviction as in memsim.Config.
	EvictEvery int
	// Seed drives the cluster's nondeterminism.
	Seed int64
	// ReadCache is the entry capacity of the per-front-end volatile read
	// cache: a bounded key→value cache (present = Shared, absent =
	// Invalid) consulted before paying the simulated Load on the read
	// path, invalidated inline by every write path that changes visible
	// state (see docs/caching.md). Its entries are allocated once, at
	// Open. 0 (the default) disables the cache entirely — the read path
	// is byte-for-byte the uncached one.
	ReadCache int
	// Prefetch enables the speculative prefetcher on top of the read
	// cache: a per-shard Markov successor table plus a sequential-run
	// detector issue non-blocking speculative reads that warm the cache
	// ahead of Get/Scan. Ignored unless ReadCache > 0.
	Prefetch bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.CompactAtFill < 0 {
		c.CompactAtFill = 0
	} else if c.CompactAtFill > 1 {
		c.CompactAtFill = 1
	}
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.Batch <= 0 {
		c.Batch = DefaultBatch
	}
	if c.PipelineDepth < 1 {
		c.PipelineDepth = 1
	}
	return c
}

// hashKey spreads keys over shards (Fibonacci hashing, as in ds.Map).
func hashKey(k core.Val) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

// StoreOf returns which of n stores that partition the keyspace key k
// routes to: a pool's cluster. The avalanche finisher (Murmur3-style, as
// in the record checksums) decorrelates it from the shard map's hashKey:
// reducing one hash modulo counts that share factors would alias the two
// levels — at n == Shards each store would serve all its keys from one
// shard.
func StoreOf(k core.Val, n int) int {
	h := hashKey(k)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}
