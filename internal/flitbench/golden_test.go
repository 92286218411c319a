package flitbench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cxl0/internal/flit"
)

// update rewrites testdata/cells.golden from this run instead of checking
// against it:
//
//	go test ./internal/flitbench -run Golden -update
//
// Only a change that means to alter a cell's simulated cost may use it.
var update = flag.Bool("update", false, "rewrite testdata/cells.golden from this run")

// goldenCase is one named case of a golden test and the text it pins.
type goldenCase struct{ name, text string }

// checkGolden holds every case's SHA-256 digest to the "name digest" line
// recorded for it in path, in case order, or rewrites path under -update.
func checkGolden(t *testing.T, path string, cases []goldenCase) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# SHA-256 per case; regenerate with -update, do not edit by hand.\n")
	for _, c := range cases {
		fmt.Fprintf(&b, "%s %x\n", c.name, sha256.Sum256([]byte(c.text)))
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(b.String(), "\n"), strings.Split(string(doc), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s holds %d lines, this run %d: the case set changed (rerun with -update if intended)", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %q, golden %q: behaviour changed (rerun with -update if intended)", path, got[i], want[i])
		}
	}
}

// TestCellsGolden pins the simulated cost of every workload × strategy ×
// placement cell and every point of the three ablations.
func TestCellsGolden(t *testing.T) {
	var cases []goldenCase
	for _, w := range Workloads {
		for _, s := range flit.Strategies {
			for _, p := range []Placement{Remote, Local} {
				st, err := Run(Config{Workload: w, Strategy: s, Placement: p, Ops: 300, Seed: 1})
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", w, s, p, err)
				}
				cases = append(cases, goldenCase{fmt.Sprintf("%v/%v/%v", w, s, p), fmt.Sprint(st.SimNS)})
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
		goldenCase{"ablation/eviction", fmt.Sprint(eviction)},
		goldenCase{"ablation/placement-mix", fmt.Sprint(mix)},
		goldenCase{"ablation/counter-table", fmt.Sprint(table)})
	checkGolden(t, "testdata/cells.golden", cases)
}
