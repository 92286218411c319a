package faults_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cxl0/internal/faults"
)

// update rewrites testdata/forclass.golden from this run instead of
// checking against it:
//
//	go test ./internal/faults -run Golden -update
//
// Only a change that means to alter a generated schedule may use it.
var update = flag.Bool("update", false, "rewrite testdata/forclass.golden from this run")

// TestForClassGolden pins every generated schedule: one SHA-256 digest of
// ForClass's campaign JSON per class and shape, over a grid of operation
// counts, shard counts and periods that covers empty schedules, blasts
// clamped to tiny fleets, periods of 1 and 2 (a close offset of 0) and
// periods longer than the run.
func TestForClassGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# SHA-256 per case; regenerate with -update, do not edit by hand.\n")
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
					fmt.Fprintf(&b, "%s/ops=%d/shards=%d/every=%d %x\n", class, ops, shards, every, sha256.Sum256(blob))
				}
			}
		}
	}
	const path = "testdata/forclass.golden"
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
			t.Errorf("%s: got %q, golden %q: a schedule changed (rerun with -update if intended)", path, got[i], want[i])
		}
	}
}
