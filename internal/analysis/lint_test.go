package analysis_test

import (
	"os/exec"
	"testing"
)

// TestLintCleanOverTree puts the lint suite under `go test ./...`: the
// full cxl0-lint suite must run clean over the whole repository, test
// files included. A finding here is either a genuine new violation (fix
// it) or a deliberate exception (annotate it — see docs/analysis.md).
func TestLintCleanOverTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full dependency graph; run without -short")
	}
	cmd := exec.Command("go", "run", "./cmd/cxl0-lint", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cxl0-lint is not clean over ./...:\n%s(%v)", out, err)
	}
}
