package obs

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// Hist is a log2-bucketed latency histogram over simulated nanoseconds:
// bucket i counts values in [2^(i-1), 2^i) (bucket 0 counts values below
// 1ns). The bucketing trades ~50% relative resolution for fixed size and
// allocation-free adds — the right trade for p50/p95/p99 snapshots over
// latencies spanning DRAM hits to GPF stalls.
type Hist struct {
	counts [64]uint64
	n      uint64
	sum    float64
}

// add records one latency sample.
func (h *Hist) add(ns float64) {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i > 63 {
		i = 63
	}
	h.counts[i]++
	h.n++
	h.sum += ns
}

// N returns the sample count.
func (h *Hist) N() uint64 { return h.n }

// Mean returns the exact mean of the recorded samples (the sum is kept
// unbucketed), or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns the q-quantile (q in [0,1]) as the arithmetic
// midpoint 1.5·2^(i-1) of the bucket [2^(i-1), 2^i) holding the rank — an
// estimate with log2-bucket resolution, +50 %/−25 % of the true value,
// documented in docs/observability.md. Returns 0 with no samples.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0.5
			}
			return 1.5 * math.Ldexp(1, i-1) // mid of [2^(i-1), 2^i)
		}
	}
	return 0
}

// rateSecs is the rolling-rate window length in host seconds.
const rateSecs = 10

// rateWindow counts events into per-second buckets of the host clock and
// reports a rolling events-per-second rate over the last rateSecs seconds.
type rateWindow struct {
	counts [rateSecs]uint64
	second [rateSecs]int64 // unix second each bucket currently holds
}

func (w *rateWindow) add(now int64) {
	i := now % rateSecs
	if w.second[i] != now {
		w.second[i] = now
		w.counts[i] = 0
	}
	w.counts[i]++
}

func (w *rateWindow) perSec(now int64) float64 {
	total := uint64(0)
	for i := range w.counts {
		if now-w.second[i] < rateSecs {
			total += w.counts[i]
		}
	}
	return float64(total) / rateSecs
}

// Stats aggregates the event stream into counters, rolling rates and
// latency histograms keyed by op type and by (op, global shard). Latency
// samples are simulated nanoseconds; rates run on the host clock. A
// Recorder feeds it; Snapshot renders it for /metrics.
type Stats struct {
	mu       sync.Mutex
	now      func() time.Time // host clock, injectable for tests
	kinds    [numKinds]uint64 // completed events per kind (see Recorder)
	perOp    [numOps]Hist
	rates    [numOps]rateWindow
	perShard [][numOps]Hist // indexed by global shard, grown on first sample
	// Write-latency split (Recorder.WriteLatency): submit-to-durable-ack
	// vs submit-to-return per acknowledged write. With the commit
	// pipeline off the two nearly coincide; the gap is what pipelining
	// buys (see docs/pipeline.md).
	writeAck, writeIssue Hist
	// Commit-latency split (Recorder.Commit): flush-lane queue wait vs
	// the flush span itself, per commit flush.
	commitQueue, commitFlush Hist
}

// NewStats returns an empty aggregate on the real host clock.
func NewStats() *Stats {
	// Host-clock rate windows only; never feeds simulated state.
	return &Stats{now: time.Now} //cxl0:hostclock
}

// recordOp feeds one op span's simulated latency (and its host-time rate
// tick) into the aggregate.
func (s *Stats) recordOp(op Op, shard int, simNS float64) {
	if op <= OpNone || op >= numOps {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kinds[KindOp]++
	s.perOp[op].add(simNS)
	s.rates[op].add(s.now().Unix())
	if shard >= 0 {
		for len(s.perShard) <= shard {
			s.perShard = append(s.perShard, [numOps]Hist{})
		}
		s.perShard[shard][op].add(simNS)
	}
}

// count bumps one non-op kind counter.
func (s *Stats) count(k Kind) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kinds[k]++
}

// recordWrite feeds one acknowledged write's ack/issue latency pair.
func (s *Stats) recordWrite(ackNS, issueNS float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeAck.add(ackNS)
	s.writeIssue.add(issueNS)
}

// recordCommit counts one commit flush and feeds its queue-wait and
// flush-span samples.
func (s *Stats) recordCommit(queueNS, flushNS float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kinds[KindCommit]++
	s.commitQueue.add(queueNS)
	s.commitFlush.add(flushNS)
}

// OpSnapshot is one op type's aggregate: sample count, rolling host-rate
// and simulated-latency percentiles.
type OpSnapshot struct {
	Op         string  `json:"op"`
	Count      uint64  `json:"count"`
	RatePerSec float64 `json:"rate_per_sec"`
	MeanNS     float64 `json:"mean_ns"`
	P50NS      float64 `json:"p50_ns"`
	P95NS      float64 `json:"p95_ns"`
	P99NS      float64 `json:"p99_ns"`
}

// ShardSnapshot is one global shard's per-op aggregates.
type ShardSnapshot struct {
	Shard int          `json:"shard"`
	Ops   []OpSnapshot `json:"ops"`
}

// Snapshot is the JSON-ready view of a Stats.
type Snapshot struct {
	// Ops aggregates per op type across all shards; Shards breaks the
	// shard-routable ops down by global shard index.
	Ops    []OpSnapshot    `json:"ops"`
	Shards []ShardSnapshot `json:"shards"`
	// WriteLat splits acknowledged writes' latency into the "ack"
	// (submit to durable ack) and "issue" (submit to return) rows, and
	// CommitLat splits commit flushes into their "queue" (flush-lane
	// wait) and "flush" (the flush span) rows. Omitted with no samples.
	WriteLat  []OpSnapshot `json:"write_latency,omitempty"`
	CommitLat []OpSnapshot `json:"commit_latency,omitempty"`
	// Completed-event counters: operation spans, commit flushes,
	// completed migrations and compactions (the checkpoint the store
	// marks done), crashes, recoveries, rebalance decisions, and
	// fault-campaign churn (partitions, heals, degrade changes).
	OpSpans     uint64 `json:"op_spans"`
	Commits     uint64 `json:"commits"`
	Migrations  uint64 `json:"migrations"`
	Compactions uint64 `json:"compactions"`
	Crashes     uint64 `json:"crashes"`
	Recoveries  uint64 `json:"recoveries"`
	Rebalances  uint64 `json:"rebalances"`
	Partitions  uint64 `json:"partitions"`
	Heals       uint64 `json:"heals"`
	Degrades    uint64 `json:"degrades"`
	// Read-cache counters (all 0 with kv.Config.ReadCache off): reads
	// served from the front end's local cache, reads that paid the Load
	// and filled it, and speculative prefetch fills.
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	SpeculativeFills uint64 `json:"speculative_fills"`
}

// histSnapshot renders one histogram as a row under label: an op's name,
// or a write/commit latency split's.
func histSnapshot(label string, h *Hist, rate float64) OpSnapshot {
	return OpSnapshot{
		Op:         label,
		Count:      h.N(),
		RatePerSec: rate,
		MeanNS:     h.Mean(),
		P50NS:      h.Quantile(0.50),
		P95NS:      h.Quantile(0.95),
		P99NS:      h.Quantile(0.99),
	}
}

// Snapshot renders the aggregate. Ops and shards with no samples are
// omitted.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now().Unix()
	snap := Snapshot{
		OpSpans:     s.kinds[KindOp],
		Commits:     s.kinds[KindCommit],
		Migrations:  s.kinds[KindMigration],
		Compactions: s.kinds[KindCompaction],
		Crashes:     s.kinds[KindCrash],
		Recoveries:  s.kinds[KindRecover],
		Rebalances:  s.kinds[KindRebalance],
		Partitions:  s.kinds[KindPartition],
		Heals:       s.kinds[KindHeal],
		Degrades:    s.kinds[KindDegrade],

		CacheHits:        s.kinds[KindCacheHit],
		CacheMisses:      s.kinds[KindCacheMiss],
		SpeculativeFills: s.kinds[KindSpeculative],
	}
	for op := OpNone + 1; op < numOps; op++ {
		if s.perOp[op].N() == 0 {
			continue
		}
		snap.Ops = append(snap.Ops, histSnapshot(op.String(), &s.perOp[op], s.rates[op].perSec(now)))
	}
	if s.writeAck.N() > 0 {
		snap.WriteLat = []OpSnapshot{
			histSnapshot("ack", &s.writeAck, 0),
			histSnapshot("issue", &s.writeIssue, 0),
		}
	}
	if s.commitFlush.N() > 0 {
		snap.CommitLat = []OpSnapshot{
			histSnapshot("queue", &s.commitQueue, 0),
			histSnapshot("flush", &s.commitFlush, 0),
		}
	}
	for id := range s.perShard {
		hs := &s.perShard[id]
		row := ShardSnapshot{Shard: id}
		for op := OpNone + 1; op < numOps; op++ {
			if hs[op].N() == 0 {
				continue
			}
			row.Ops = append(row.Ops, histSnapshot(op.String(), &hs[op], 0))
		}
		if len(row.Ops) > 0 {
			snap.Shards = append(snap.Shards, row)
		}
	}
	return snap
}
