package main

import (
	"slices"

	"cxl0/internal/faults"
	"cxl0/internal/kv"
	"cxl0/internal/workload"
)

// Row-class names, as summarizers select rows by them.
const (
	classStatic     = "static"
	classRebalanced = "rebalanced"
	classPressure   = "pressure"
	classCampaign   = "campaign"
	classPipelined  = "pipelined"
	classCache      = "cache"
)

// rowClass is one kind of benchmark row: how the matrix expands into its
// rows, how they print, what they feed and what proves them alive.
type rowClass struct {
	name string
	// mark is the row's "rb" column in the printed table; suffix is what
	// best_config appends when a row of this (cell-riding) class wins it.
	mark, suffix string
	// skip, when set, is the one workload.Run error that drops a row of
	// this class (loudly, on stderr) instead of aborting the matrix.
	skip error
	// Exactly one of cell and sweep expands the class. cell rides the
	// full matrix loop: handed each cell's static options, it returns the
	// class's row for that cell, or false for none. sweep returns the
	// class's own rows over its own axes, appended after the matrix.
	cell  func(m *matrix, o workload.Options) (workload.Options, bool)
	sweep func(m *matrix) []workload.Options
	// feeds names the headline JSON keys the class's rows populate.
	feeds []string
	// live reports whether the class's rows and the headline they feed
	// carry what the class exists to measure — what `go test
	// ./cmd/cxl0-bench` holds a reduced run to, on top of "its rows ran
	// and every key it feeds is populated". A class without one fails
	// that test.
	live func(rows []row, h *headline) bool
}

// classes is the benchmark matrix, in artifact order.
var classes = []*rowClass{
	{
		// One static-routing row per matrix cell: the batching, commit
		// locality and pooling claims compare these apples to apples.
		// Live when pooled rows ran and every pooled cluster count scales.
		name: classStatic, mark: " ",
		cell: func(_ *matrix, o workload.Options) (workload.Options, bool) { return o, true },
		feeds: []string{"group_vs_gpf_speedup", "group_config", "ranged_vs_group_speedup", "ranged_config",
			"group_per_op_cost_growth", "ranged_per_op_cost_growth", "pooled_throughput_scaling",
			"best_throughput_ops_per_sec", "best_config"},
		live: func(rows []row, h *headline) bool {
			return slices.ContainsFunc(rows, func(r row) bool { return r.Clusters > 1 }) &&
				all(h.PooledThroughputScaling, func(ps pooledScale) bool {
					return ps.Clusters > 1 && ps.MeanSpeedup > 0 && ps.BestSpeedup >= ps.MeanSpeedup
				})
		},
	},
	{
		// The same cell with the online rebalancer on, for every
		// single-cluster multi-shard cell. Pooled cells stay static:
		// rebalancing is cluster-local machinery already measured at one
		// cluster, and the pooled rows exist to isolate capacity scaling.
		// Live when a bucket actually migrated.
		name: classRebalanced, mark: "+", suffix: "/rebalanced",
		cell: func(m *matrix, o workload.Options) (workload.Options, bool) {
			o.RebalanceEvery = m.RebalanceEvery
			return o, m.RebalanceEvery > 0 && o.Store.Shards > 1 && o.Clusters == 1
		},
		feeds: []string{"static_max_mean_busy", "rebalanced_max_mean_busy", "imbalance_config", "rebalance_speedup"},
		live: func(rows []row, _ *headline) bool {
			return slices.ContainsFunc(rows, func(r row) bool { return r.Migrations > 0 && r.MigratedRecords > 0 })
		},
	},
	{
		// The same cell with per-shard logs sized far below the workload's
		// append volume and auto-compaction keeping it alive.
		// Single-cluster write-heavy cells only — the row isolates the
		// long-run capacity claim. Hash placement is binomial: with a very
		// large keyspace a shard's live set can exceed the row's slack,
		// which no compaction can fold; that invalidates this stress row,
		// not the matrix, hence the skip. Live when every row ran capped,
		// rows compacted, and the headline reports more appends than slots.
		name: classPressure, mark: "c", suffix: "/capped", skip: kv.ErrShardFull,
		cell: func(m *matrix, o workload.Options) (workload.Options, bool) {
			// The expected per-shard live set (preload plus the workload's
			// inserts) plus slack, so the live set always folds.
			o.Store.Capacity = (m.Keys+m.Ops*o.Spec.InsertPct/100)/o.Store.Shards + 64
			o.Store.CompactAtFill = m.CompactAtFill
			return o, m.CompactAtFill > 0 && o.Clusters == 1 && o.Spec.UpdatePct+o.Spec.InsertPct >= 20
		},
		feeds: []string{"compaction"},
		live: func(rows []row, h *headline) bool {
			c := h.Compaction
			return all(rows, func(r row) bool { return r.Capacity > 0 && r.CompactAtFill > 0 }) &&
				slices.ContainsFunc(rows, func(r row) bool { return r.Compactions > 0 && r.ReclaimedSlots > 0 }) &&
				c != nil && c.Compactions > 0 && c.ReclaimedSlots > 0 && c.AppendsOverCapacity > 1
		},
	},
	{
		// Every strategy × campaign class at the sweeps' fixed workload,
		// the largest shard count and one cluster, each strategy's
		// fault-free "none" row being its retention baseline. With pooled
		// clusters in the matrix one pooled none/partitioned pair rides
		// along, to show partition blast radius staying cluster-local.
		// Campaign rows run no uniform crash churn. Live when every class
		// reports retention against its baseline.
		name: classCampaign, mark: "f",
		sweep: func(m *matrix) []workload.Options {
			var rows []workload.Options
			add := func(strat kv.Strategy, clusters int, class string) {
				o := m.options(m.sweepSpec, strat, slices.Max(m.Shards), clusters, m.variants[0])
				o.CrashEvery = 0
				o.Campaign = must(faults.ForClass(class, m.Ops, o.Store.Shards*clusters, m.CampaignEvery))
				rows = append(rows, o)
			}
			for _, strat := range m.strategies {
				for _, class := range campaignClasses {
					add(strat, 1, class)
				}
			}
			if pooled := slices.Max(m.Clusters); pooled > 1 {
				add(m.strategies[0], pooled, "none")
				add(m.strategies[0], pooled, "partitioned")
			}
			return rows
		},
		feeds: []string{"fault_campaign"},
		live: func(rows []row, h *headline) bool {
			fc := h.FaultCampaign
			return all(rows, func(r row) bool { return r.Campaign != "" }) &&
				fc.Config != "" && len(fc.Classes) == len(campaignClasses)-1 &&
				all(fc.Classes, func(ch campaignClassHead) bool { return ch.MeanRetention > 0 && ch.MeanAvailability > 0 })
		},
	},
	{
		// The batched strategies at every shard count with the async
		// commit pipeline at each depth K > 1 (K = 1 is the static row).
		// Live when every row carries the ack/issue latency split and
		// every headline entry found its blocking baseline.
		name: classPipelined, mark: "k",
		sweep: func(m *matrix) []workload.Options {
			var rows []workload.Options
			for _, strat := range m.strategies {
				for _, shards := range m.Shards {
					for _, depth := range m.PipelineDepths {
						if strat.Batched() && depth > 1 {
							o := m.options(m.sweepSpec, strat, shards, 1, m.variants[0])
							o.Store.PipelineDepth = depth
							rows = append(rows, o)
						}
					}
				}
			}
			return rows
		},
		feeds: []string{"pipelined_throughput"},
		live: func(rows []row, h *headline) bool {
			return len(h.PipelinedThroughput) == len(rows) &&
				all(rows, func(r row) bool {
					return r.PipelineDepth > 1 && r.AckP50NS > 0 && r.AckP99NS > 0 && r.IssueP50NS > 0 && r.IssueP99NS > 0
				}) &&
				all(h.PipelinedThroughput, func(ph pipelinedHead) bool {
					return ph.Depth > 1 && ph.AckP99NS > 0 && ph.SpeedupVsBlocking > 0
				})
		},
	},
	{
		// The read-heavy YCSB workloads at every cluster count, each run
		// cache-off and cache-on (with the prefetcher) and otherwise
		// identical, so each on-row's baseline is its off-row. Fixed at the
		// largest shard count, the first variant and ranged commit when
		// swept: the read path is strategy-independent, one strategy
		// isolates the caching claim. Live when every cache-on row hit,
		// every headline entry found its cache-off baseline, and the
		// prefetcher filled speculatively.
		name: classCache, mark: "h",
		sweep: func(m *matrix) []workload.Options {
			if m.Cache <= 0 {
				return nil
			}
			strat := m.strategies[0]
			if slices.Contains(m.strategies, kv.RangedCommit) {
				strat = kv.RangedCommit
			}
			var rows []workload.Options
			for _, wl := range cacheWorkloads {
				spec := must(workload.YCSB(wl))
				spec.Keys = m.Keys
				for _, clusters := range m.Clusters {
					for _, capacity := range []int{0, m.Cache} {
						o := m.options(spec, strat, slices.Max(m.Shards), clusters, m.variants[0])
						o.CacheSweep, o.Store.ReadCache, o.Store.Prefetch = true, capacity, capacity > 0
						rows = append(rows, o)
					}
				}
			}
			return rows
		},
		feeds: []string{"read_cache"},
		live: func(rows []row, h *headline) bool {
			return 2*len(h.ReadCache) == len(rows) &&
				all(rows, func(r row) bool {
					return r.CacheSweep && slices.Contains(cacheWorkloads, r.Workload) && r.ReadMeanNS > 0 &&
						(r.ReadCache == 0 || (r.CacheHits > 0 && r.CacheHitRate > 0))
				}) &&
				all(h.ReadCache, func(rc readCacheHead) bool {
					return rc.CacheHitRate > 0 && rc.ReadMeanNS > 0 && rc.BaselineReadMeanNS > 0
				}) &&
				slices.ContainsFunc(h.ReadCache, func(rc readCacheHead) bool { return rc.SpeculativeFills > 0 })
		},
	},
}

// campaignClasses are the campaign sweep's schedules, in sweep order:
// the fault-free baseline, uniform churn, then the structured classes.
var campaignClasses = []string{"none", "uniform", "correlated", "degraded", "partitioned"}

// cacheWorkloads are the read-heavy YCSB workloads the cache sweep runs.
var cacheWorkloads = []string{"B", "C", "D"}

// all reports whether ok holds for every element.
func all[T any](xs []T, ok func(T) bool) bool {
	return !slices.ContainsFunc(xs, func(x T) bool { return !ok(x) })
}

// must unwraps a constructor handed one of this file's own constant
// names: an error there is a bug in the table, not an input.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
