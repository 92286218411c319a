package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"cxl0/internal/faults"
	"cxl0/internal/obs"
	"cxl0/internal/pool"
)

// minReps is the fewest untraced reps a run takes its host medians from;
// a traced run spends one rep on the trace and keeps at least two.
const (
	minReps       = 3
	minRepsTraced = 2
)

// hostStat is one host-clock metric over the untraced reps.
type hostStat struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// quantile interpolates the q-th quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func newHostStat(values []float64) hostStat {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return hostStat{Values: values, Q1: quantile(sorted, 0.25), Median: quantile(sorted, 0.5), Q3: quantile(sorted, 0.75)}
}

// workloadResult is one workload's outcome: what results.json stores and
// -compare reads.
type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Seed int64  `json:"seed"`
	// Reps is the number of untraced reps behind the host medians; Ops is
	// the measured operations of one rep.
	Reps int `json:"reps"`
	Ops  int `json:"ops"`
	// Config is the full pool.Config (and kv.Config) of the run; Strategy
	// and Variant spell out its two enumerations.
	Config   pool.Config `json:"config"`
	Strategy string      `json:"strategy"`
	Variant  string      `json:"variant"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	// PerLayer is nil on an untraced run.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Host holds the per-rep raw values of every host-clock end-to-end
	// metric.
	Host map[string]hostStat `json:"host"`

	// Attempted and Failed count measured operations over all reps.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`

	TraceFile        string `json:"trace_file,omitempty"`
	TraceRows        int    `json:"trace_rows,omitempty"`
	TraceRowsDropped int    `json:"trace_rows_dropped,omitempty"`
}

// runOpts are the settings of one workload run.
type runOpts struct {
	seed int64
	// seconds is the host-time budget of the untraced reps (a traced run
	// gives them half and spends the rest on the traced rep and probes).
	seconds float64
	traced  bool
	// scale divides the workload's op count and key space; 1 outside the
	// smoke test.
	scale int
	// outDir receives the trace file ("" writes none).
	outDir string
	// probeFor is how long each host probe runs at least.
	probeFor time.Duration
}

// runWorkload runs w: untraced reps, each on a fresh DB, until the time
// budget is spent (never fewer than the minimum), then — when traced — one
// traced rep and the host probes. The first rep carries the durability
// audit. Every rep must reproduce the first rep's simulated metrics and
// counts exactly.
func runWorkload(w workloadDef, o runOpts) (workloadResult, error) {
	w.Ops /= o.scale
	w.Spec.Keys /= o.scale
	w.Pool.Store.Seed = o.seed + 1
	res := workloadResult{
		Name: w.Name, Why: w.Why, Seed: o.seed, Ops: w.Ops, Config: w.Pool,
		Strategy: w.Pool.Store.Strategy.String(), Variant: w.Pool.Store.Variant.String(),
		EndToEnd: map[string]float64{}, Host: map[string]hostStat{},
	}
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	need := minReps
	if o.traced {
		need = minRepsTraced
		budget /= 2
	}

	var first repOut
	host := map[string][]float64{}
	check := func(rep repOut, label string) {
		res.Attempted += res.Ops
		res.Failed += rep.Failed
		if rep.Err != "" {
			res.Errors = append(res.Errors, label+": "+rep.Err)
		}
		for name, want := range first.Det {
			if got, ok := rep.Det[name]; ok && got != want {
				res.Errors = append(res.Errors, fmt.Sprintf("%s: %s = %v, first rep measured %v: not deterministic", label, name, got, want))
			}
		}
	}
	for rep := 0; rep < need || time.Since(start) < budget; rep++ {
		out, err := runRep(w, o.seed, nil, rep == 0)
		if err != nil {
			return res, err
		}
		if rep == 0 {
			first = out
		}
		check(out, fmt.Sprintf("rep %d", rep))
		host["setup_s"] = append(host["setup_s"], out.SetupS)
		host["host_ops_per_s"] = append(host["host_ops_per_s"], float64(res.Ops)/out.WallS)
		host["host_allocs_per_op"] = append(host["host_allocs_per_op"], out.AllocsOp)
		host["host_live_heap_mb"] = append(host["host_live_heap_mb"], out.LiveHeapMB)
		res.Reps++
	}
	for _, m := range endToEnd {
		if values, ok := host[m.Name]; ok {
			res.Host[m.Name] = newHostStat(values)
			res.EndToEnd[m.Name] = res.Host[m.Name].Median
		} else {
			res.EndToEnd[m.Name] = first.Det[m.Name]
		}
	}

	if o.traced {
		tr := newTracer()
		out, err := runRep(w, o.seed, tr, false)
		if err != nil {
			return res, err
		}
		check(out, "traced rep")
		if lost := tr.sub.Dropped(); lost > 0 {
			res.Errors = append(res.Errors, fmt.Sprintf("traced rep: %d events lost to bus overwrite", lost))
		}
		res.PerLayer = ledger(w, res, first.Det, out, tr, o.probeFor)
		if o.outDir != "" {
			res.TraceFile = filepath.Join(o.outDir, w.Name+".trace.csv")
			if err := tr.writeFile(res.TraceFile); err != nil {
				return res, err
			}
		}
		res.TraceRows, res.TraceRowsDropped = len(tr.rows), tr.dropped
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res, nil
}

// ledger assembles the per-layer metrics of a traced run: exact counts and
// sim-clock values from the deterministic set, sim-clock means from the
// obs event stream, host percentiles from the spans around the driver's
// own calls, and the host probes.
func ledger(w workloadDef, res workloadResult, det map[string]float64, traced repOut, tr *tracer, probeFor time.Duration) map[string]float64 {
	out := runProbes(w, traced.rt, det, probeFor)
	for _, m := range perLayer {
		if v, ok := det[m.Name]; ok {
			out[m.Name] = v
		}
	}
	out["kv.commit_flush_sim_ns_mean"] = ratio(tr.commitFlushNS, tr.commits)
	out["kv.commit_queue_sim_ns_mean"] = ratio(tr.commitQueueNS, tr.commits)
	out["kv.op_sim_ns_mean.get"] = ratio(tr.opNS[obs.OpGet], tr.opN[obs.OpGet])
	out["kv.op_sim_ns_mean.put"] = ratio(tr.opNS[obs.OpPut], tr.opN[obs.OpPut])
	out["kv.op_sim_ns_mean.scan"] = ratio(tr.opNS[obs.OpScan], tr.opN[obs.OpScan])
	out["pool.fanout_legs_per_scan"] = ratio(tr.scanLegs, tr.scanFanOuts)
	out["pool.fanout_makespan_over_serial"] = ratio(tr.legMakespan, tr.legSerial)

	out["pool.get_host_ns_p50"] = faults.PercentileNS(tr.durs[spanGet], 50)
	out["pool.get_host_ns_p99"] = faults.PercentileNS(tr.durs[spanGet], 99)
	out["pool.put_host_ns_p50"] = faults.PercentileNS(tr.durs[spanPut], 50)
	out["pool.put_host_ns_p99"] = faults.PercentileNS(tr.durs[spanPut], 99)
	out["pool.scan_host_ns_p50"] = faults.PercentileNS(tr.durs[spanScan], 50)
	out["pool.scan_host_ns_p99"] = faults.PercentileNS(tr.durs[spanScan], 99)
	inDB := 0.0
	for name := spanName(0); name < numSpans; name++ {
		if name != spanNext {
			inDB += sum(tr.durs[name])
		}
	}
	out["workload.driver_host_share"] = 1 - inDB/(traced.WallS*1e9)

	untracedOpsPerS := res.EndToEnd["host_ops_per_s"]
	out["memsim.est_host_share"] = det["memsim.prims_per_op"] * out["memsim.prim_host_ns"] * untracedOpsPerS / 1e9
	out["trace.overhead_pct"] = 100 * (1 - float64(res.Ops)/traced.WallS/untracedOpsPerS)
	return out
}
