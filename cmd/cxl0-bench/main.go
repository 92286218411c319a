// Command cxl0-bench runs the KV service benchmark matrix on the
// simulated CXL clock, prints a result table and writes the
// machine-readable BENCH_kv.json that captures the repo's performance
// trajectory. It drives the kv.DB interface only — a single
// cluster-backed store, or a pool.Router over several for the pooled
// rows.
//
// The matrix is the row-class table in classes.go; README.md's "KV
// service benchmark" section lists each class with the axes it sweeps,
// the headline it feeds and the flag that disables it.
//
// Example:
//
//	go run ./cmd/cxl0-bench -ops 2000 -workloads A,E -shards 1,4 -clusters 1,2
//
// -cpuprofile, -memprofile and -mutexprofile write runtime/pprof profiles
// of the whole matrix (go tool pprof -top FILE); the artifact does not
// change.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/workload"
)

// benchFile is the JSON artifact written after a run.
type benchFile struct {
	Paper     string            `json:"paper"`
	Benchmark string            `json:"benchmark"`
	Config    benchConfig       `json:"config"`
	Results   []workload.Result `json:"results"`
	Headline  headline          `json:"headline"`
}

// benchConfig echoes the flags the matrix ran at; the list fields carry
// the parsed, trimmed names.
type benchConfig struct {
	Ops            int      `json:"ops"`
	Keys           int      `json:"keys"`
	Batch          int      `json:"batch"`
	CrashEvery     int      `json:"crash_every"`
	EvictEvery     int      `json:"evict_every"`
	RebalanceEvery int      `json:"rebalance_every"`
	CompactAtFill  float64  `json:"compact_at_fill"`
	CampaignEvery  int      `json:"campaign_every"`
	Cache          int      `json:"cache"`
	Seed           int64    `json:"seed"`
	Workloads      []string `json:"workloads"`
	Strategies     []string `json:"strategies"`
	Shards         []int    `json:"shards"`
	Clusters       []int    `json:"clusters"`
	Variants       []string `json:"variants"`
	PipelineDepths []int    `json:"pipeline_depths"`
}

// matrix is the parsed flag set: the axes and knobs every row class
// expands its rows from.
type matrix struct {
	benchConfig
	specs      []workload.Spec
	strategies []kv.Strategy
	variants   []core.Variant
	// sweepSpec is the sweep classes' fixed workload: A when it is in the
	// matrix, else the first. With the first variant it makes a
	// single-cluster sweep row's comparator the already-measured static
	// row, byte for byte.
	sweepSpec workload.Spec
}

// row is one benchmark row, carrying its class tag from expansion
// onward — so summarizers select rows by class instead of re-deriving it
// from result fields. plan fills class and opts, the run loop Result.
type row struct {
	class *rowClass
	opts  workload.Options
	workload.Result
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "cxl0-bench:", err)
		os.Exit(1)
	}
}

// outputs are the files a run writes; an empty path writes nothing.
type outputs struct {
	// artifact is the JSON artifact (-out).
	artifact string
	// cpuProfile, memProfile and mutexProfile are the pprof profiles of
	// the matrix run (-cpuprofile, -memprofile, -mutexprofile).
	cpuProfile, memProfile, mutexProfile string
}

// run is the whole command: parse the flags, run the matrix under the
// profiles asked for, write the artifact.
func run(args []string, stdout io.Writer) error {
	m, out, err := parseFlags(args)
	if err != nil {
		return err
	}
	var file benchFile
	if err := profiled(out, func() (err error) {
		file, _, err = bench(m, stdout)
		return err
	}); err != nil || out.artifact == "" {
		return err
	}
	blob, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out.artifact, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d results)\n", out.artifact, len(file.Results))
	return nil
}

// profiled runs body under a CPU profile written to out.cpuProfile, then
// writes a heap profile as of body's end to out.memProfile and the mutex
// contention body met, every event of it sampled, to out.mutexProfile.
func profiled(out outputs, body func() error) (err error) {
	if out.mutexProfile != "" {
		defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
	}
	if out.cpuProfile != "" {
		// cf and cerr are the block's own names, so the deferred join
		// below lands in the named result.
		cf, cerr := os.Create(out.cpuProfile)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(cf); cerr != nil {
			return errors.Join(cerr, cf.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, cf.Close())
		}()
	}
	if err := body(); err != nil {
		return err
	}
	if out.memProfile != "" {
		runtime.GC() // the profile's in-use figures are as of the last GC
		if err := writeProfile(out.memProfile, pprof.WriteHeapProfile); err != nil {
			return err
		}
	}
	if out.mutexProfile == "" {
		return nil
	}
	return writeProfile(out.mutexProfile, func(w io.Writer) error { return pprof.Lookup("mutex").WriteTo(w, 0) })
}

// writeProfile writes a profile to a new file at path.
func writeProfile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// bench walks the plan in artifact order — its loop is the only
// workload.Run call site — printing the table as it goes, and returns the
// artifact with the tagged rows its headline was summarized from.
func bench(m *matrix, stdout io.Writer) (benchFile, []row, error) {
	fmt.Fprintf(stdout, "KV service benchmark: %d ops/config, %d keys, batch %d, crash every %d ops, rebalance every %d ops, compact at %.0f%% fill\n",
		m.Ops, m.Keys, m.Batch, m.CrashEvery, m.RebalanceEvery, 100*m.CompactAtFill)
	fmt.Fprintf(stdout, "%-4s %-8s %7s %3s %-9s %3s %14s %12s %10s %10s %6s %5s %5s\n",
		"wl", "strategy", "shards", "cl", "variant", "rb", "ops/sec(sim)", "p50 ns", "p99 ns", "rcvry ns", "mx/mn", "migr", "cmpct")
	file := benchFile{
		Paper:     "A Programming Model for Disaggregated Memory over CXL",
		Benchmark: "sharded durable KV service (internal/kv) under YCSB-style workloads (internal/workload)",
		Config:    m.benchConfig,
	}
	var rows []row
	for _, r := range plan(m) {
		o := r.opts
		label := fmt.Sprintf("%s row %s/%v/%d/%dcl/%v", r.class.name, o.Spec.Name, o.Store.Strategy, o.Store.Shards, o.Clusters, o.Store.Variant)
		var err error
		r.Result, err = workload.Run(o)
		if r.class.skip != nil && errors.Is(err, r.class.skip) {
			fmt.Fprintf(os.Stderr, "cxl0-bench: skipping %s: %v\n", label, err)
			continue
		}
		if err != nil {
			return file, nil, fmt.Errorf("%s: %w", label, err)
		}
		rows, file.Results = append(rows, r), append(file.Results, r.Result)
		fmt.Fprintf(stdout, "%-4s %-8s %7d %3d %-9s %3s %14.0f %12.0f %10.0f %10.0f %6.2f %5d %5d\n",
			r.Workload, r.Strategy, r.Shards, r.Clusters, r.Variant, r.class.mark,
			r.ThroughputOpsPerSec, r.P50NS, r.P99NS, r.RecoveryMeanNS,
			r.MaxMeanBusy, r.Migrations, r.Compactions)
	}
	file.Headline = summarize(rows, m)
	fmt.Fprintln(stdout)
	file.Headline.print(stdout)
	return file, rows, nil
}

// plan expands the class table into the rows to run, in artifact order:
// the full matrix first — each cell's static row with the cell-riding
// classes' rows right behind it — then each sweep class's own rows.
func plan(m *matrix) []row {
	var todo []row
	for _, clusters := range m.Clusters {
		for _, spec := range m.specs {
			for _, variant := range m.variants {
				for _, shards := range m.Shards {
					for _, strat := range m.strategies {
						base := m.options(spec, strat, shards, clusters, variant)
						for _, rc := range classes {
							if rc.cell == nil {
								continue
							}
							if o, ok := rc.cell(m, base); ok {
								todo = append(todo, row{class: rc, opts: o})
							}
						}
					}
				}
			}
		}
	}
	for _, rc := range classes {
		if rc.sweep != nil {
			for _, o := range rc.sweep(m) {
				todo = append(todo, row{class: rc, opts: o})
			}
		}
	}
	return todo
}

// options is the one constructor every row's workload.Options starts
// from — the static row of one matrix cell; row classes modify the copy
// they are handed.
func (m *matrix) options(spec workload.Spec, strat kv.Strategy, shards, clusters int, variant core.Variant) workload.Options {
	return workload.Options{
		Spec: spec,
		Store: kv.Config{
			Shards:     shards,
			Strategy:   strat,
			Batch:      m.Batch,
			Variant:    variant,
			EvictEvery: m.EvictEvery,
		},
		Clusters:   clusters,
		Ops:        m.Ops,
		CrashEvery: m.CrashEvery,
		Seed:       m.Seed,
	}
}

// parseFlags parses the command line into the matrix and the files the
// run writes.
func parseFlags(args []string) (*matrix, outputs, error) {
	var m matrix
	fs := flag.NewFlagSet("cxl0-bench", flag.ContinueOnError)
	fs.IntVar(&m.Ops, "ops", 2000, "measured operations per configuration")
	fs.IntVar(&m.Keys, "keys", 400, "preloaded keyspace size")
	fs.IntVar(&m.Batch, "batch", 16, "batched-commit batch size")
	fs.IntVar(&m.CrashEvery, "crash-every", 700, "ops between crash+recover cycles (0 disables)")
	fs.IntVar(&m.EvictEvery, "evict-every", 8, "background cache-eviction period (0 disables)")
	fs.IntVar(&m.RebalanceEvery, "rebalance-every", 250, "ops between load-rebalance checks on the rebalanced rows (0 disables those rows)")
	fs.Float64Var(&m.CompactAtFill, "compact-at-fill", 0.85, "auto-compaction threshold of the capacity-pressure rows (0 disables those rows)")
	fs.Int64Var(&m.Seed, "seed", 1, "workload seed")
	workloads := fs.String("workloads", "A,E", "comma-separated YCSB workloads (A,B,C,D,E)")
	strategies := fs.String("strategies", "mstore,flush,gpf,group,ranged", "comma-separated persistence strategies")
	shards := fs.String("shards", "1,4,12", "comma-separated per-cluster shard counts")
	clusters := fs.String("clusters", "1,2,4", "comma-separated pooled cluster counts (rows with >1 pool that many clusters behind a router)")
	variants := fs.String("variants", "base,psn", "comma-separated hardware variants (base,psn,lwb)")
	depths := fs.String("pipeline-depths", "1,2,4", "comma-separated commit-pipeline depths for the pipelined sweep (1 is the blocking baseline already in the matrix; depths >1 add sweep rows)")
	fs.IntVar(&m.Cache, "cache", 256, "read-cache entry capacity of the cache-sweep rows (0 disables those rows)")
	var out outputs
	fs.StringVar(&out.artifact, "out", "BENCH_kv.json", "output JSON path (empty disables)")
	fs.StringVar(&out.cpuProfile, "cpuprofile", "", "write a CPU profile of the matrix run to this file")
	fs.StringVar(&out.memProfile, "memprofile", "", "write a heap profile at the end of the matrix run to this file")
	fs.StringVar(&out.mutexProfile, "mutexprofile", "", "write a mutex contention profile of the matrix run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, out, err
	}

	// Validate every list up front — unknown names and duplicates fail
	// here with the full picture, not 90 seconds into the matrix.
	var errs [6]error
	m.specs, m.Workloads, errs[0] = parseList("workloads", *workloads, workload.YCSB)
	m.strategies, m.Strategies, errs[1] = parseList("strategies", *strategies, kv.ParseStrategy)
	m.Shards, _, errs[2] = parseList("shards", *shards, parseCount)
	m.Clusters, _, errs[3] = parseList("clusters", *clusters, parseCount)
	m.variants, m.Variants, errs[4] = parseList("variants", *variants, core.ParseVariant)
	m.PipelineDepths, _, errs[5] = parseList("pipeline-depths", *depths, parseCount)
	if err := errors.Join(append(errs[:], m.checkScalars()...)...); err != nil {
		return nil, out, err
	}
	for i := range m.specs {
		m.specs[i].Keys = m.Keys
	}
	m.sweepSpec = m.specs[max(0, slices.IndexFunc(m.specs, func(s workload.Spec) bool { return s.Name == "A" }))]
	m.CampaignEvery = max(m.Ops/5, 2)
	return &m, out, nil
}

// checkScalars rejects the scalar flag values the artifact's config
// would echo but the rows would not run: kv takes a batch below 1 as its
// default and clamps a compaction threshold to [0, 1], the periods and
// the cache size run as 0 when negative, and a row needs a key.
func (m *matrix) checkScalars() []error {
	var errs []error
	atLeast := func(flagName string, v, least int) {
		if v < least {
			errs = append(errs, fmt.Errorf("-%s: %d is below %d", flagName, v, least))
		}
	}
	atLeast("keys", m.Keys, 1)
	atLeast("batch", m.Batch, 1)
	atLeast("crash-every", m.CrashEvery, 0)
	atLeast("evict-every", m.EvictEvery, 0)
	atLeast("rebalance-every", m.RebalanceEvery, 0)
	atLeast("cache", m.Cache, 0)
	if !(m.CompactAtFill >= 0 && m.CompactAtFill <= 1) {
		errs = append(errs, fmt.Errorf("-compact-at-fill: %v is outside [0, 1]", m.CompactAtFill))
	}
	return errs
}

// parseList is the one parser behind every comma-separated list flag:
// it trims each element, parses it, and rejects a value that repeats —
// each of its rows would run twice and skew the headlines. names are the
// trimmed elements, for the artifact's config echo.
func parseList[T comparable](flagName, list string, parse func(string) (T, error)) (vals []T, names []string, err error) {
	seen := map[T]string{}
	for _, elem := range strings.Split(list, ",") {
		name := strings.TrimSpace(elem)
		v, err := parse(name)
		if err != nil {
			return nil, nil, fmt.Errorf("-%s: %w", flagName, err)
		}
		if prev, dup := seen[v]; dup {
			return nil, nil, fmt.Errorf("-%s: duplicate %q repeats %q (each row would run twice and skew the headlines)", flagName, name, prev)
		}
		seen[v] = name
		vals, names = append(vals, v), append(names, name)
	}
	return vals, names, nil
}

func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad count %q (want a positive integer)", s)
	}
	return n, nil
}
