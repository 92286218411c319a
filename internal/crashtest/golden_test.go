package crashtest

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cxl0/internal/flit"
	"cxl0/internal/history"
)

// update rewrites testdata/histories.golden from this run instead of
// checking against it:
//
//	go test ./internal/crashtest -run Golden -update
//
// Only a change that means to alter the recorded histories may use it.
var update = flag.Bool("update", false, "rewrite testdata/histories.golden from this run")

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

// TestSingleWorkerHistoriesGolden pins the history a lone worker records
// for every strategy × structure × seed 1–3 without a crash: one worker
// and no crash controller leave nothing to the host scheduler, so the
// operations, their arguments and their results are a function of the
// seed alone.
func TestSingleWorkerHistoriesGolden(t *testing.T) {
	var cases []goldenCase
	for _, strat := range flit.Strategies {
		for _, s := range Structures {
			for seed := int64(1); seed <= 3; seed++ {
				r := Run(Options{Structure: s, Strategy: strat, Crash: CrashNone, Seed: seed, Workers: 1, OpsPerWorker: 12})
				if r.Err != nil {
					t.Fatalf("%v/%v/seed %d: %v", strat, s, seed, r.Err)
				}
				cases = append(cases, goldenCase{fmt.Sprintf("%v/%v/seed%d", strat, s, seed), history.Timeline(r.History)})
			}
		}
	}
	checkGolden(t, "testdata/histories.golden", cases)
}
