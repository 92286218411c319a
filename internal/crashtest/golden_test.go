package crashtest

import (
	"fmt"
	"testing"

	"cxl0/internal/flit"
	"cxl0/internal/golden"
	"cxl0/internal/history"
)

// TestSingleWorkerHistoriesGolden pins the history a lone worker records
// for every strategy × structure × seed 1–3 without a crash: one worker
// and no crash controller leave nothing to the host scheduler, so the
// operations, their arguments and their results are a function of the
// seed alone. Only a change that means to alter the recorded histories
// reruns it with -update.
func TestSingleWorkerHistoriesGolden(t *testing.T) {
	var cases []golden.Case
	for _, strat := range flit.Strategies {
		for _, s := range Structures {
			for seed := int64(1); seed <= 3; seed++ {
				r := Run(Options{Structure: s, Strategy: strat, Crash: CrashNone, Seed: seed, Workers: 1, OpsPerWorker: 12})
				if r.Err != nil {
					t.Fatalf("%v/%v/seed %d: %v", strat, s, seed, r.Err)
				}
				cases = append(cases, golden.Case{Name: fmt.Sprintf("%v/%v/seed%d", strat, s, seed), Text: history.Timeline(r.History)})
			}
		}
	}
	golden.Check(t, "testdata/histories.golden", golden.Digests(cases))
}
