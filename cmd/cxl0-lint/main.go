// Command cxl0-lint runs the cxl0 static-analysis suite: the
// go/analysis passes that mechanically enforce the simulator's
// determinism and protocol invariants (docs/analysis.md is the rule
// catalog) over the named packages, their _test.go files included:
//
//	go run ./cmd/cxl0-lint ./...
//
// The exit status is 0 when the tree is clean and nonzero when any
// analyzer reports a finding. internal/analysis's TestLintCleanOverTree
// runs exactly this, so `go test ./...` fails on a finding.
package main

import (
	"golang.org/x/tools/go/analysis/multichecker"

	"cxl0/internal/analysis"
)

func main() {
	multichecker.Main(analysis.All()...)
}
