package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkFileMatches holds BENCHMARK.json to the declarations in
// this package: same workloads and reasons, same metrics in the same
// order with the same units, directions and bounds.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n package %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n package %+v", f.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload at 1/100 of its size, traced: each
// declared metric must come out exactly once with a finite value, and the
// reps of one run — fresh DBs in one process — must agree on every
// simulated metric and count (runWorkload reports a disagreement as an
// error, which clears Correct).
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, runOpts{seed: 1, traced: true, scale: 100, probeFor: time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Reps < minRepsTraced {
			t.Errorf("%s: correct=%v after %d reps: %v", w.Name, res.Correct, res.Reps, res.Errors)
		}
		for _, set := range []struct {
			defs []metricDef
			got  map[string]float64
		}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
			if len(set.got) != len(set.defs) {
				t.Errorf("%s: %d metrics emitted, %d declared", w.Name, len(set.got), len(set.defs))
			}
			for _, m := range set.defs {
				v, ok := set.got[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v (emitted: %v)", w.Name, m.Name, v, ok)
				}
			}
		}
		for _, m := range endToEnd {
			if res.EndToEnd[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, res.EndToEnd[m.Name])
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "x", Better: "higher"}
	lower := metricDef{Name: "y", Better: "lower"}
	for _, c := range []struct {
		m                   metricDef
		a, b, bound, spread float64
		want                string
	}{
		{higher, 100, 100, 0.1, 0, "same"},
		{higher, 100, 85, 0.1, 0.02, "worse"},
		{higher, 100, 95, 0.1, 0.02, "same"},
		{higher, 100, 95, 0.1, 0.2, "unresolved"},
		{higher, 100, 120, 0.1, 0.02, "better"},
		{lower, 100, 120, 0.1, 0.02, "worse"},
		{lower, 100, 80, 0.1, 0.02, "better"},
		{lower, 100, 101, 0.005, 0, "worse"},
	} {
		if _, got := verdict(c.m, c.a, c.b, c.bound, c.spread); got != c.want {
			t.Errorf("%s %v -> %v (bound %v, spread %v): got %s, want %s", c.m.Better, c.a, c.b, c.bound, c.spread, got, c.want)
		}
	}
}
