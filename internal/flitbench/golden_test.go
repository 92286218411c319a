package flitbench

import (
	"fmt"
	"testing"

	"cxl0/internal/flit"
	"cxl0/internal/golden"
)

// TestCellsGolden pins the simulated cost of every workload × strategy ×
// placement cell and every point of the three ablations. Only a change
// that means to alter a cell's simulated cost reruns it with -update.
func TestCellsGolden(t *testing.T) {
	var cases []golden.Case
	for _, w := range Workloads {
		for _, s := range flit.Strategies {
			for _, p := range []Placement{Remote, Local} {
				st, err := Run(Config{Workload: w, Strategy: s, Placement: p, Ops: 300, Seed: 1})
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", w, s, p, err)
				}
				cases = append(cases, golden.Case{Name: fmt.Sprintf("%v/%v/%v", w, s, p), Text: fmt.Sprint(st.SimNS)})
			}
		}
	}
	eviction, err := EvictionAblation(flit.Strategies, []int{0, 64, 8, 1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := PlacementMixAblation(flit.Strategies, []int{0, 50, 100}, 300)
	if err != nil {
		t.Fatal(err)
	}
	table, err := CounterTableAblation([]int{1, 8, 128, 1024}, 128)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		golden.Case{Name: "ablation/eviction", Text: fmt.Sprint(eviction)},
		golden.Case{Name: "ablation/placement-mix", Text: fmt.Sprint(mix)},
		golden.Case{Name: "ablation/counter-table", Text: fmt.Sprint(table)})
	golden.Check(t, "testdata/cells.golden", golden.Digests(cases))
}
