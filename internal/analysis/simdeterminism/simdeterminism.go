// Package simdeterminism defines an analyzer enforcing the simulator's
// reproducibility contract: an observed run must be bit-identical to an
// unobserved one, and a seeded run must replay bit-identically. Three
// things break that silently and are therefore forbidden in the
// sim-path packages:
//
//   - host-clock reads (time.Now and friends) — simulated cost must be
//     charged on the simulated clock, never measured on the host's;
//   - the global math/rand source — all randomness must flow from a
//     seeded, locally-owned *rand.Rand so a seed pins the whole run;
//   - ranging over a map where the iteration feeds sim-visible state —
//     Go randomizes map iteration order per run, so any clock charge,
//     event payload, log/slot ordering or shard selection derived from
//     it diverges between bit-identical seeds.
//
// The host-facing packages (internal/obs rolling rates, cmd/cxl0-serve)
// legitimately read the host clock; those sites carry a
// //cxl0:hostclock annotation. A map iteration whose effect is provably
// order-insensitive (e.g. draining a set where every element gets the
// same treatment and no order-dependent state escapes) may carry
// //cxl0:order-insensitive. See docs/analysis.md.
package simdeterminism

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"cxl0/internal/analysis/annot"
)

// simPkgs are the packages on the simulated timeline: every rule
// applies.
var simPkgs = map[string]bool{
	"cxl0/internal/core":      true,
	"cxl0/internal/memsim":    true,
	"cxl0/internal/kv":        true,
	"cxl0/internal/kv/kvtest": true,
	"cxl0/internal/pool":      true,
	"cxl0/internal/faults":    true,
	"cxl0/internal/workload":  true,
}

// hostPkgs sit at the host boundary: the clock and RNG rules apply
// (with //cxl0:hostclock escapes expected), but map iteration there
// feeds host-visible output only.
var hostPkgs = map[string]bool{
	"cxl0/internal/obs":   true,
	"cxl0/cmd/cxl0-serve": true,
}

// hostClockFuncs are the time package's host-clock entry points. Pure
// arithmetic (time.Duration, time.Unix) stays allowed.
var hostClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// globalRandFuncs are the package-level math/rand (and v2) functions
// backed by the process-global source. Constructors for locally seeded
// generators (New, NewSource, NewZipf, NewPCG, NewChaCha8) are allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true, "Int63n": true,
	"Uint32": true, "Uint64": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true, "Uint": true,
	"UintN": true, "Uint32N": true, "Uint64N": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid host-clock reads, the global math/rand source, and sim-visible map iteration in sim-path packages\n\n" +
		"The benchmark methodology depends on seeded runs replaying bit-identically and on observation having zero " +
		"simulated cost; this analyzer rejects the three constructs that silently break that.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	sim, host := simPkgs[pass.Pkg.Path()], hostPkgs[pass.Pkg.Path()]
	if !sim && !host {
		return nil, nil
	}
	anns := annot.Gather(pass.Fset, pass.Files)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // a method (e.g. on a seeded *rand.Rand), not a package-level function
				}
				switch obj.Pkg().Path() {
				case "time":
					if hostClockFuncs[obj.Name()] && !anns.Allows(n.Pos(), "hostclock") {
						pass.ReportRangef(n, "time.%s reads the host clock: sim-path code must charge the simulated clock "+
							"(annotate //cxl0:hostclock only for genuinely host-visible sites like rolling rates)", obj.Name())
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[obj.Name()] {
						pass.ReportRangef(n, "rand.%s draws from the global math/rand source: use a seeded, locally-owned "+
							"*rand.Rand so the run replays bit-identically from its seed", obj.Name())
					}
				}
			case *ast.RangeStmt:
				if !sim {
					return true
				}
				t := pass.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap && !anns.Allows(n.For, "order-insensitive") {
					pass.ReportRangef(n.X, "map iteration order is randomized per run: sim-visible state (clock charges, "+
						"event payloads, log/slot ordering, shard selection) must not depend on it — iterate sorted keys, "+
						"or annotate //cxl0:order-insensitive with a rationale if no ordering escapes")
				}
			}
			return true
		})
	}
	return nil, nil
}
