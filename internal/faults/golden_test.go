package faults_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"cxl0/internal/faults"
	"cxl0/internal/golden"
)

// TestForClassGolden pins every generated schedule: one SHA-256 digest of
// ForClass's campaign JSON per class and shape, over a grid of operation
// counts, shard counts and periods that covers empty schedules, blasts
// clamped to tiny fleets, periods of 1 and 2 (a close offset of 0) and
// periods longer than the run. Only a change that means to alter a
// generated schedule reruns it with -update.
func TestForClassGolden(t *testing.T) {
	var cases []golden.Case
	for _, class := range []string{"none", "uniform", "correlated", "degraded", "partitioned"} {
		for _, ops := range []int{0, 1, 7, 100, 401, 2000} {
			for _, shards := range []int{1, 2, 3, 4, 12} {
				for _, every := range []int{1, 2, 3, 50, 100, 400} {
					c, err := faults.ForClass(class, ops, shards, every)
					if err != nil {
						t.Fatalf("ForClass(%s, %d, %d, %d): %v", class, ops, shards, every, err)
					}
					blob, err := json.Marshal(c)
					if err != nil {
						t.Fatal(err)
					}
					cases = append(cases, golden.Case{Name: fmt.Sprintf("%s/ops=%d/shards=%d/every=%d", class, ops, shards, every), Text: string(blob)})
				}
			}
		}
	}
	golden.Check(t, "testdata/forclass.golden", golden.Digests(cases))
}
