// Command bench is the repository's benchmark: four fixed KV workloads
// driven through the kv.DB interface against pool.Open, on two clocks —
// the latency model's (sim_*, repeats bit-for-bit for a seed) and this
// machine's (host_*, setup_s) — with a per-layer ledger measured from
// outside the program. See README.md in this directory; BENCHMARK.json at
// the repository root declares the workloads, metrics and bounds.
//
//	go run ./bench                            # every workload, traced, writes bench/out/results.json
//	go run ./bench -workload NAME -trace 0    # one workload, end-to-end metrics
//	go run ./bench -workload NAME -trace 1    # one workload, per-layer metrics
//	go run ./bench -compare a.json b.json     # hold b to a within the bounds
//
// It is distinct from cmd/cxl0-bench, which stays the paper-reproduction
// matrix behind BENCH_kv.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the host-time budget of
// one workload run.
const defaultSeconds = 20

// probeFor is how long each host probe of a traced run lasts at least.
const probeFor = 300 * time.Millisecond

// results is the content of results.json.
type results struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadResult `json:"workloads"`
}

// commit returns the VCS revision the binary was built from, when the
// toolchain stamped one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printMetrics prints one line per metric: workload metric value unit.
func printMetrics(name string, defs []metricDef, values map[string]float64) {
	for _, m := range defs {
		fmt.Printf("%s %s %v %s\n", name, m.Name, values[m.Name], m.Unit)
	}
}

// contractLine is the last line of a single-workload run: the result in
// the form the benchmark driver reads.
func contractLine(res workloadResult, defs []metricDef, values map[string]float64) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func run() error {
	workloadName := flag.String("workload", "", "run only this workload and end with the driver's JSON result line (default: all four, traced)")
	seed := flag.Int64("seed", 1, "seed of the op stream and of the clusters' eviction randomness")
	seconds := flag.Float64("seconds", defaultSeconds, "host-time budget of one workload run")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = add the traced rep and report the per-layer ledger")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for results.json and the trace files (\"\" writes nothing)")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments; exit 1 if the second is worse")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two results.json files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workloadDef{w}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	all := results{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds,
	}
	traced := *workloadName == "" || *trace == 1
	correct := true
	var last workloadResult
	for _, w := range selected {
		res, err := runWorkload(w, runOpts{
			seed: *seed, seconds: *seconds, traced: traced, scale: 1, outDir: *outDir, probeFor: probeFor,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Printf("%s reps %d count\n", w.Name, res.Reps)
		fmt.Printf("%s failed_op_share %v ratio\n", w.Name, float64(res.Failed)/float64(res.Attempted))
		printMetrics(w.Name, endToEnd, res.EndToEnd)
		if res.PerLayer != nil {
			printMetrics(w.Name, perLayer, res.PerLayer)
		}
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", w.Name, e)
		}
		correct = correct && res.Correct
		all.Workloads = append(all.Workloads, res)
		last = res
	}
	if *outDir != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outDir, "results.json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *workloadName != "" {
		if *trace == 1 {
			fmt.Println(contractLine(last, perLayer, last.PerLayer))
		} else {
			fmt.Println(contractLine(last, endToEnd, last.EndToEnd))
		}
	}
	if !correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
