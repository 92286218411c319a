package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges metric m going from a to b. rel is the signed change as
// a share of a, positive when b is better. spread is the wider of the two
// sides' interquartile ranges as a share of their medians (0 for a metric
// that repeats exactly). A change past the bound in the wrong direction
// is worse; within the bound it is unresolved when the runs themselves
// scatter wider than the bound, better when it beats both the scatter and
// sameSeedSimBound (below that a change is not worth a verdict), and the
// same otherwise.
func verdict(m metricDef, a, b, bound, spread float64) (rel float64, v string) {
	rel = (b - a) / math.Abs(a)
	if m.Better == "lower" {
		rel = -rel
	}
	switch {
	case a == b:
		return 0, "same"
	case rel < -bound:
		return rel, "worse"
	case spread > bound:
		return rel, "unresolved"
	case rel > math.Max(spread, sameSeedSimBound):
		return rel, "better"
	}
	return rel, "same"
}

// compareFiles prints, per workload and end-to-end metric, both files'
// values, the change, the bound and the verdict, and returns an error if
// any metric got worse.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	worse := 0
	fmt.Printf("%-20s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", pathA, pathB, "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			bound, spread := m.Bound, 0.0
			if ha, ok := wa.Host[m.Name]; ok {
				hb := wb.Host[m.Name]
				spread = math.Max(ratio(ha.Q3-ha.Q1, ha.Median), ratio(hb.Q3-hb.Q1, hb.Median))
			} else if wa.Seed == wb.Seed {
				bound = sameSeedSimBound
			}
			rel, v := verdict(m, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], bound, spread)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-20s %-22s %14.6g %14.6g %+7.2f%% %6.1f%%  %s\n",
				wa.Name, m.Name, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], 100*rel, 100*bound, v)
		}
		if wa.Seed == wb.Seed && wa.PerLayer != nil && wb.PerLayer != nil {
			// At equal seeds every simulated-clock value and count of the
			// ledger repeats exactly; list the ones that moved.
			for _, m := range perLayer {
				va, vb := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
				if (m.Unit == unitSimNS || m.Unit == unitCount) && va != vb {
					fmt.Printf("%-20s %-22s %14.6g %14.6g  (exact per-layer value changed)\n", wa.Name, m.Name, va, vb)
				}
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than %s beyond their bound", worse, pathA)
	}
	return nil
}
