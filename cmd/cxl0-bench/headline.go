package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"cxl0/internal/kv"
)

// headline summarizes the two batching claims: group commit amortizes the
// GPF against the per-op-GPF baseline, and ranged commit keeps per-op
// commit cost flat in shard count where group commit's fabric-wide GPF
// charge grows linearly.
type headline struct {
	GroupVsGPFSpeedup float64 `json:"group_vs_gpf_speedup"`
	GroupConfig       string  `json:"group_config"`
	// RangedVsGroupSpeedup compares RangedCommit against GroupCommit at
	// the largest shard count in the matrix, where GPF stalls hurt most.
	RangedVsGroupSpeedup float64 `json:"ranged_vs_group_speedup,omitempty"`
	RangedConfig         string  `json:"ranged_config,omitempty"`
	// *PerOpCostGrowth is the mean per-op simulated cost at the largest
	// shard count divided by the same at the smallest, averaged over
	// workload/variant combos: ~1.0 means commit cost is shard-local,
	// while fabric-wide charging grows linearly with the shard count.
	GroupPerOpCostGrowth  float64 `json:"group_per_op_cost_growth,omitempty"`
	RangedPerOpCostGrowth float64 `json:"ranged_per_op_cost_growth,omitempty"`
	// PipelinedThroughput is the async-commit-pipeline claim: for each
	// batched strategy × shard count × pipeline depth K > 1 in the sweep,
	// throughput against the identical blocking (K=1) static row, with
	// the ack/issue latency split pipelining trades for it. Ranged
	// commit overlaps flushes with appends (speedup grows with K up to
	// flush/append cost parity); group commit's fabric-wide GPF
	// serializes the pipeline, so its rows hover near 1x — the contrast
	// is the claim (see docs/pipeline.md).
	PipelinedThroughput []pipelinedHead `json:"pipelined_throughput,omitempty"`
	// ReadCache is the node-local read-cache claim: for each read-heavy
	// workload (B, C, D) × pooled cluster count in the cache sweep, the
	// cache-on row's hit rate and mean served-read latency against the
	// identical cache-off row. The cache serves repeated reads from
	// front-end DRAM and the predictor warms it speculatively, so the
	// reduction grows with the workload's read skew (see docs/caching.md).
	ReadCache []readCacheHead `json:"read_cache,omitempty"`
	// Skew: max/mean shard busy (traffic only) under the zipfian
	// update-heavy workload A — the static-routing row against the same
	// configuration with online rebalancing, at the pair with the
	// largest static/rebalanced improvement factor; pairs rebalancing
	// tames to <= 1.5 always outrank pairs it does not.
	// RebalanceSpeedup is the throughput ratio at that same pair.
	StaticMaxMeanBusy     float64 `json:"static_max_mean_busy"`
	RebalancedMaxMeanBusy float64 `json:"rebalanced_max_mean_busy"`
	ImbalanceConfig       string  `json:"imbalance_config"`
	RebalanceSpeedup      float64 `json:"rebalance_speedup"`
	// PooledThroughputScaling is the multi-cluster pooling claim: for
	// each pooled cluster count in the matrix, the throughput speedup of
	// the pooled service over the identical 1-cluster configuration,
	// averaged over every matched workload/strategy/shards/variant combo
	// (and the best single pairing). Clusters share nothing, so the
	// speedup is capacity scaling, not batching.
	PooledThroughputScaling []pooledScale `json:"pooled_throughput_scaling,omitempty"`
	// Compaction is the long-run capacity claim: the capacity-pressure
	// rows (per-shard logs sized far below the workload's append volume,
	// auto-compaction on) complete without ShardFullError, and this row
	// reports how hard compaction worked to make that possible.
	Compaction *compactionHead `json:"compaction,omitempty"`
	// FaultCampaign is the graceful-degradation claim: per campaign
	// class, throughput retention against the fault-free baseline and
	// the recovery-time distribution — scripted correlated crashes,
	// degraded devices and fabric partitions versus the uniform-churn
	// baseline (see internal/faults and docs/faults.md).
	FaultCampaign  faultCampaignHead `json:"fault_campaign"`
	BestThroughput float64           `json:"best_throughput_ops_per_sec"`
	BestConfig     string            `json:"best_config"`
}

// faultCampaignHead summarizes the campaign sweep: one entry per
// campaign class, each aggregated over the swept strategies at the
// sweep's fixed configuration.
type faultCampaignHead struct {
	// Config is the fixed workload/shards/variant the sweep ran at (the
	// campaign rows in results carry the per-strategy detail).
	Config string `json:"config"`
	// Classes reports each campaign class against the fault-free
	// baseline ("none"), in sweep order: uniform churn first, then the
	// structured classes, so every class reads against both baselines.
	Classes []campaignClassHead `json:"classes"`
}

// campaignClassHead is one campaign class's aggregate over the swept
// strategies.
type campaignClassHead struct {
	Campaign string `json:"campaign"`
	// Retention is the class's goodput over the fault-free baseline's
	// for the same strategy: the mean across strategies, and the
	// worst/best strategy with its ratio. Goodput counts served
	// operations only, so retention captures the clock-time cost of a
	// class (degradation, recovery churn) — but not denied load, which
	// costs nothing on the clock. Availability below captures that:
	// the served fraction of offered operations. Under the GPF-based
	// strategies a partition blocks commits cluster-wide, so
	// "partitioned" availability splits sharply by strategy — that
	// split is the blast-radius claim.
	MeanRetention  float64 `json:"mean_retention"`
	WorstRetention float64 `json:"worst_retention"`
	WorstStrategy  string  `json:"worst_strategy"`
	BestRetention  float64 `json:"best_retention"`
	BestStrategy   string  `json:"best_strategy"`
	// Availability is served ops over offered ops (1 on a class that
	// denies nothing, like "degraded").
	MeanAvailability          float64 `json:"mean_availability"`
	WorstAvailability         float64 `json:"worst_availability"`
	WorstAvailabilityStrategy string  `json:"worst_availability_strategy"`
	// Recovery-time distribution, worst case across the swept strategies
	// on the simulated clock: Outage* are crash-to-recovered windows,
	// RecoveryP95NS the recovery work itself, PartitionP95NS the
	// partition-to-heal window. Zero where the class injects no fault of
	// that kind.
	OutageP50NS    float64 `json:"outage_p50_ns"`
	OutageP95NS    float64 `json:"outage_p95_ns"`
	RecoveryP95NS  float64 `json:"recovery_p95_ns"`
	PartitionP95NS float64 `json:"partition_p95_ns"`
	// Denied-operation totals across the swept strategies: FailedOps hit
	// crashed shards, UnavailableOps partitioned ones, PartialResults
	// counts fan-out reads that degraded instead of failing.
	FailedOps      int `json:"failed_ops"`
	UnavailableOps int `json:"unavailable_ops"`
	PartialResults int `json:"partial_results"`
}

// compactionHead summarizes the capacity-pressure rows.
type compactionHead struct {
	// Compactions and ReclaimedSlots are totals across every pressure row.
	Compactions    int `json:"compactions"`
	ReclaimedSlots int `json:"reclaimed_slots"`
	// AppendsOverCapacity is the best row's append volume (preload +
	// writes) divided by its total log slots (Shards × Capacity): how far
	// past a bounded-lifetime log the run went.
	AppendsOverCapacity float64 `json:"appends_over_capacity"`
	// ThroughputVsUncapped compares the best pressure row against the
	// identical configuration with worst-case (never-compacting) capacity
	// — the throughput cost of running at sustained capacity pressure.
	ThroughputVsUncapped float64 `json:"throughput_vs_uncapped,omitempty"`
	Config               string  `json:"config"`
}

// pipelinedHead is one pipelined row's comparison against its blocking
// (depth-1) baseline row.
type pipelinedHead struct {
	Strategy string `json:"strategy"`
	Shards   int    `json:"shards"`
	Depth    int    `json:"pipeline_depth"`
	// ThroughputOpsPerSec is the pipelined row's throughput and
	// SpeedupVsBlocking its ratio over the identical K=1 static row.
	ThroughputOpsPerSec float64 `json:"throughput_ops_per_sec"`
	SpeedupVsBlocking   float64 `json:"speedup_vs_blocking,omitempty"`
	// AckP99NS / IssueP99NS are the write-latency split: submit-to-
	// durable-ack (grows with queue depth) vs submit-to-return (what the
	// client blocks on — the pipeline's point).
	AckP99NS   float64 `json:"ack_p99_ns"`
	IssueP99NS float64 `json:"issue_p99_ns"`
	Config     string  `json:"config"`
}

// readCacheHead is one cache-on sweep row's comparison against its
// identical cache-off baseline row.
type readCacheHead struct {
	Workload string `json:"workload"`
	Clusters int    `json:"clusters"`
	// ReadCache is the row's cache capacity (the -cache flag) and
	// CacheHitRate its hits/(hits+misses) over served reads.
	ReadCache        int     `json:"read_cache"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	SpeculativeFills uint64  `json:"speculative_fills"`
	// ReadMeanNS / BaselineReadMeanNS are the mean served-read latencies
	// with and without the cache; ReadLatencyReduction is
	// 1 - ReadMeanNS/BaselineReadMeanNS (the fraction of read latency the
	// cache removed).
	ReadMeanNS           float64 `json:"read_mean_ns"`
	BaselineReadMeanNS   float64 `json:"baseline_read_mean_ns"`
	ReadLatencyReduction float64 `json:"read_latency_reduction"`
	ThroughputSpeedup    float64 `json:"throughput_speedup,omitempty"`
	Config               string  `json:"config"`
}

// pooledScale is one cluster count's pooling speedup over the matched
// 1-cluster rows.
type pooledScale struct {
	Clusters    int     `json:"clusters"`
	MeanSpeedup float64 `json:"mean_speedup"`
	BestSpeedup float64 `json:"best_speedup"`
	BestConfig  string  `json:"best_config"`
}

// cell is a row's configuration coordinates: the one key every baseline
// lookup goes through. A row's comparator is the row of another class at
// the same cell, or of the same class one coordinate over (the 1-cluster
// cell of a pooled row, the per-op-GPF cell of a group-commit row).
type cell struct {
	strategy, workload string
	shards, clusters   int
	variant            string
}

func (r row) cell() cell {
	return cell{r.Strategy, r.Workload, r.Shards, r.Clusters, r.Variant}
}

// String is the configuration name the headline's *_config fields carry.
func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%d/%s", c.workload, c.strategy, c.shards, c.variant)
}

// index keys the rows keep accepts (nil: all of them) by cell.
func index(rows []row, keep func(row) bool) map[cell]row {
	out := map[cell]row{}
	for _, r := range rows {
		if keep == nil || keep(r) {
			out[r.cell()] = r
		}
	}
	return out
}

// ratio is num/den, or 0 without a positive denominator (no baseline).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// summarize derives the headline from the tagged rows. The batching,
// locality, pooling, skew and compaction claims compare against the
// static row at the same cell; the sweep classes run schedules and
// configurations no matrix row runs, so they feed only their own
// headline.
func summarize(rows []row, m *matrix) headline {
	byClass := map[string][]row{}
	for _, r := range rows {
		byClass[r.class.name] = append(byClass[r.class.name], r)
	}
	static := index(byClass[classStatic], nil)
	var head headline
	head.best(rows)
	head.batching(byClass[classStatic], static, slices.Min(m.Shards), slices.Max(m.Shards))
	head.pooling(byClass[classStatic], static, m.Clusters)
	head.skew(byClass[classRebalanced], static)
	head.compaction(byClass[classPressure], static, m.Keys)
	head.FaultCampaign.Config = fmt.Sprintf("%s/%d/%s", m.sweepSpec.Name, slices.Max(m.Shards), m.variants[0])
	head.campaigns(byClass[classCampaign])
	head.pipelined(byClass[classPipelined], static)
	head.readCache(byClass[classCache])
	return head
}

// best picks the best throughput among the matrix (cell-riding) classes
// only: the campaign sweep's fault-free rows skip the default crash
// churn, so a sweep row must never win it.
func (h *headline) best(rows []row) {
	for _, r := range rows {
		if r.class.cell == nil || r.ThroughputOpsPerSec <= h.BestThroughput {
			continue
		}
		h.BestThroughput, h.BestConfig = r.ThroughputOpsPerSec, r.cell().String()
		if r.Clusters > 1 {
			h.BestConfig += fmt.Sprintf("/%dclusters", r.Clusters)
		}
		h.BestConfig += r.class.suffix
	}
}

// batching derives, from the single-cluster static rows, group commit's
// amortization claim (against per-op GPF at any shard count), ranged
// commit's locality claim (against group commit at the largest shard
// count) and both strategies' per-op cost growth from the smallest to
// the largest shard count, averaged over workload/variant combos.
func (h *headline) batching(rows []row, static map[cell]row, minShards, maxShards int) {
	// speedup is strategy's best throughput ratio over the baseline
	// strategy at the same cell, among rows at shards (0 = any).
	speedup := func(strategy, baseline kv.Strategy, shards int) (best float64, config string) {
		for _, r := range rows {
			if r.Strategy != strategy.String() || r.Clusters != 1 || (shards > 0 && r.Shards != shards) {
				continue
			}
			at := r.cell()
			at.strategy = baseline.String()
			if sp := ratio(r.ThroughputOpsPerSec, static[at].ThroughputOpsPerSec); sp > best {
				best, config = sp, fmt.Sprintf("%s/%d/%s", r.Workload, r.Shards, r.Variant)
			}
		}
		return best, config
	}
	h.GroupVsGPFSpeedup, h.GroupConfig = speedup(kv.GroupCommit, kv.GPFEach, 0)
	h.RangedVsGroupSpeedup, h.RangedConfig = speedup(kv.RangedCommit, kv.GroupCommit, maxShards)

	// perOp is the mean simulated service cost per operation, with crash-
	// recovery time excluded: recovery scans shrink with the per-shard log
	// under every strategy, and leaving them in would mask the commit-cost
	// scaling this metric is meant to expose. The exclusion covers the
	// recovering shard's elapsed span only; if a GroupCommit recovery ever
	// re-persists surviving pending records, its GPF's cross-charge to the
	// other shards stays in (a small upward bias on group's growth —
	// fabric-wide recovery is part of what the metric indicts).
	perOp := func(r row) float64 {
		return ratio(r.TotalCostNS-r.RecoveryMeanNS*float64(r.Recoveries), float64(r.Ops))
	}
	growth := func(strategy kv.Strategy) float64 {
		sum, n := 0.0, 0
		for _, r := range rows {
			small := r.cell()
			small.shards = minShards
			if r.Strategy == strategy.String() && r.Clusters == 1 && r.Shards == maxShards && perOp(static[small]) > 0 {
				sum += perOp(r) / perOp(static[small])
				n++
			}
		}
		return ratio(sum, float64(n))
	}
	if maxShards > minShards {
		h.GroupPerOpCostGrowth, h.RangedPerOpCostGrowth = growth(kv.GroupCommit), growth(kv.RangedCommit)
	}
}

// pooling compares every pooled static row against the 1-cluster static
// row at the same cell: same per-cluster configuration, same traffic, so
// the throughput ratio is pure capacity scaling.
func (h *headline) pooling(rows []row, static map[cell]row, clusterCounts []int) {
	for _, clusters := range slices.Sorted(slices.Values(clusterCounts)) {
		ps, n := pooledScale{Clusters: clusters}, 0
		for _, r := range rows {
			single := r.cell()
			single.clusters = 1
			sp := ratio(r.ThroughputOpsPerSec, static[single].ThroughputOpsPerSec)
			if r.Clusters != clusters || clusters == 1 || sp == 0 {
				continue // not this count's row, not pooled, or no baseline
			}
			ps.MeanSpeedup += sp
			n++
			if sp > ps.BestSpeedup {
				ps.BestSpeedup, ps.BestConfig = sp, r.cell().String()
			}
		}
		if n > 0 {
			ps.MeanSpeedup /= float64(n)
			h.PooledThroughputScaling = append(h.PooledThroughputScaling, ps)
		}
	}
}

// skew reports, among workload-A rebalanced rows and their static rows,
// the largest skew-improvement factor — with pairs the rebalancer tames
// to <= 1.5 always outranking pairs it does not, so an already-balanced
// configuration (e.g. GPF commits, whose fabric-wide stall equalizes
// shards by slowing them all) can never shadow a genuine taming.
func (h *headline) skew(rows []row, static map[cell]row) {
	const skewTarget = 1.5
	tamed, bestScore := false, 0.0
	for _, r := range rows {
		base := static[r.cell()]
		if r.Workload != "A" || base.MaxMeanBusy <= 0 || r.MaxMeanBusy <= 0 {
			continue
		}
		score := base.MaxMeanBusy / r.MaxMeanBusy
		// A pair only gets tamed preference when rebalancing actually
		// improved it — a low-skew config that rebalancing worsened must
		// not shadow a genuine taming elsewhere in the matrix.
		isTamed := r.MaxMeanBusy <= skewTarget && score >= 1
		if (isTamed && !tamed) || (isTamed == tamed && score > bestScore) {
			tamed, bestScore = isTamed, score
			h.StaticMaxMeanBusy, h.RebalancedMaxMeanBusy = base.MaxMeanBusy, r.MaxMeanBusy
			h.ImbalanceConfig = r.cell().String()
			h.RebalanceSpeedup = ratio(r.ThroughputOpsPerSec, base.ThroughputOpsPerSec)
		}
	}
}

// compaction totals the capacity-pressure rows and reports the one that
// pushed the most appends through the least log, with its throughput
// cost against the uncapped static row at the same cell.
func (h *headline) compaction(rows []row, static map[cell]row, keys int) {
	if len(rows) > 0 {
		h.Compaction = &compactionHead{}
	}
	for _, r := range rows {
		c := h.Compaction
		c.Compactions += r.Compactions
		c.ReclaimedSlots += r.ReclaimedSlots
		if r.Compactions == 0 {
			continue
		}
		if over := float64(keys+r.Updates+r.Inserts) / float64(r.Shards*r.Capacity); over > c.AppendsOverCapacity {
			c.AppendsOverCapacity = over
			c.Config = fmt.Sprintf("%s/cap%d", r.cell(), r.Capacity)
			c.ThroughputVsUncapped = ratio(r.ThroughputOpsPerSec, static[r.cell()].ThroughputOpsPerSec)
		}
	}
}

// campaigns aggregates the campaign rows per class: retention against
// the fault-free "none" row at the same cell (the sweep runs one for
// every strategy and cluster count it runs a class at) and the
// worst-case recovery-time percentiles. Retention compares goodput, not
// throughput: denied operations cost nothing on the simulated clock, so
// a class that blocks lots of writes would otherwise look faster than
// the baseline.
func (h *headline) campaigns(rows []row) {
	base := index(rows, func(r row) bool { return r.Campaign == "none" })
	for _, class := range campaignClasses[1:] {
		ch := campaignClassHead{Campaign: class}
		n := 0.0
		for _, r := range rows {
			if r.Campaign != class {
				continue
			}
			ret := ratio(r.GoodputOpsPerSec, base[r.cell()].GoodputOpsPerSec)
			avail := float64(r.Ops-r.FailedOps-r.UnavailableOps) / float64(r.Ops)
			ch.MeanRetention += ret
			ch.MeanAvailability += avail
			if n == 0 || ret < ch.WorstRetention {
				ch.WorstRetention, ch.WorstStrategy = ret, r.Strategy
			}
			if ret > ch.BestRetention {
				ch.BestRetention, ch.BestStrategy = ret, r.Strategy
			}
			if n == 0 || avail < ch.WorstAvailability {
				ch.WorstAvailability, ch.WorstAvailabilityStrategy = avail, r.Strategy
			}
			n++
			ch.OutageP50NS = math.Max(ch.OutageP50NS, r.OutageP50NS)
			ch.OutageP95NS = math.Max(ch.OutageP95NS, r.OutageP95NS)
			ch.RecoveryP95NS = math.Max(ch.RecoveryP95NS, r.RecoveryP95NS)
			ch.PartitionP95NS = math.Max(ch.PartitionP95NS, r.PartitionP95NS)
			ch.FailedOps += r.FailedOps
			ch.UnavailableOps += r.UnavailableOps
			ch.PartialResults += r.PartialResults
		}
		ch.MeanRetention, ch.MeanAvailability = ratio(ch.MeanRetention, n), ratio(ch.MeanAvailability, n)
		h.FaultCampaign.Classes = append(h.FaultCampaign.Classes, ch)
	}
}

// pipelined compares each pipelined row against the blocking (K=1)
// static row at the same cell.
func (h *headline) pipelined(rows []row, static map[cell]row) {
	for _, r := range rows {
		h.PipelinedThroughput = append(h.PipelinedThroughput, pipelinedHead{
			Strategy:            r.Strategy,
			Shards:              r.Shards,
			Depth:               r.PipelineDepth,
			ThroughputOpsPerSec: r.ThroughputOpsPerSec,
			SpeedupVsBlocking:   ratio(r.ThroughputOpsPerSec, static[r.cell()].ThroughputOpsPerSec),
			AckP99NS:            r.AckP99NS,
			IssueP99NS:          r.IssueP99NS,
			Config:              fmt.Sprintf("%s/K%d", r.cell(), r.PipelineDepth),
		})
	}
}

// readCache compares each cache-on row against the cache-off row at the
// same cell (the sweep varies nothing else).
func (h *headline) readCache(rows []row) {
	off := index(rows, func(r row) bool { return r.ReadCache == 0 })
	for _, r := range rows {
		if r.ReadCache == 0 {
			continue
		}
		base := off[r.cell()]
		rc := readCacheHead{
			Workload:           r.Workload,
			Clusters:           r.Clusters,
			ReadCache:          r.ReadCache,
			CacheHitRate:       r.CacheHitRate,
			SpeculativeFills:   r.SpeculativeFills,
			ReadMeanNS:         r.ReadMeanNS,
			BaselineReadMeanNS: base.ReadMeanNS,
			ThroughputSpeedup:  ratio(r.ThroughputOpsPerSec, base.ThroughputOpsPerSec),
			Config:             fmt.Sprintf("%s/%dcl/cache%d", r.cell(), r.Clusters, r.ReadCache),
		}
		if base.ReadMeanNS > 0 {
			rc.ReadLatencyReduction = 1 - r.ReadMeanNS/base.ReadMeanNS
		}
		h.ReadCache = append(h.ReadCache, rc)
	}
}

// print writes the headline claims under the result table.
func (h *headline) print(w io.Writer) {
	for _, ch := range h.FaultCampaign.Classes {
		fmt.Fprintf(w, "fault campaign %-11s retention: mean %.2f, worst %.2f (%s), best %.2f (%s); availability: mean %.2f, worst %.2f (%s)\n",
			ch.Campaign, ch.MeanRetention, ch.WorstRetention, ch.WorstStrategy, ch.BestRetention, ch.BestStrategy,
			ch.MeanAvailability, ch.WorstAvailability, ch.WorstAvailabilityStrategy)
	}
	if h.GroupConfig != "" {
		fmt.Fprintf(w, "headline: group commit is %.1fx per-op GPF throughput (%s)\n",
			h.GroupVsGPFSpeedup, h.GroupConfig)
	}
	if h.RangedConfig != "" {
		fmt.Fprintf(w, "headline: ranged commit is %.1fx group commit throughput at the largest shard count (%s)\n",
			h.RangedVsGroupSpeedup, h.RangedConfig)
	}
	if h.GroupPerOpCostGrowth > 0 && h.RangedPerOpCostGrowth > 0 {
		fmt.Fprintf(w, "commit locality: per-op cost growth min->max shards: group %.2fx (fabric-wide GPF), ranged %.2fx (shard-local)\n",
			h.GroupPerOpCostGrowth, h.RangedPerOpCostGrowth)
	}
	for _, ph := range h.PipelinedThroughput {
		fmt.Fprintf(w, "headline: pipelined %s at %d shards K=%d is %.2fx the blocking commit throughput (ack p99 %.0f ns, issue p99 %.0f ns)\n",
			ph.Strategy, ph.Shards, ph.Depth, ph.SpeedupVsBlocking, ph.AckP99NS, ph.IssueP99NS)
	}
	if h.ImbalanceConfig != "" {
		fmt.Fprintf(w, "headline: rebalancing cuts workload A max/mean shard busy %.2fx -> %.2fx at %.2fx the static throughput (%s)\n",
			h.StaticMaxMeanBusy, h.RebalancedMaxMeanBusy, h.RebalanceSpeedup, h.ImbalanceConfig)
	}
	for _, ps := range h.PooledThroughputScaling {
		fmt.Fprintf(w, "headline: pooling %d clusters is %.2fx the 1-cluster throughput on average (best %.2fx at %s)\n",
			ps.Clusters, ps.MeanSpeedup, ps.BestSpeedup, ps.BestConfig)
	}
	for _, rc := range h.ReadCache {
		fmt.Fprintf(w, "headline: read cache on %s at %d clusters hits %.0f%% and cuts mean read latency %.0f%% (%d speculative fills, %s)\n",
			rc.Workload, rc.Clusters, 100*rc.CacheHitRate, 100*rc.ReadLatencyReduction, rc.SpeculativeFills, rc.Config)
	}
	if c := h.Compaction; c != nil {
		fmt.Fprintf(w, "headline: compaction sustained %.1fx the log capacity in appends — %d compactions reclaimed %d slots, %.2fx the uncapped throughput (%s)\n",
			c.AppendsOverCapacity, c.Compactions, c.ReclaimedSlots, c.ThroughputVsUncapped, c.Config)
	}
	if h.BestConfig != "" {
		fmt.Fprintf(w, "best throughput: %.0f sim ops/sec (%s)\n", h.BestThroughput, h.BestConfig)
	}
}
