// Package errtaxonomy defines an analyzer enforcing the kv error
// taxonomy at raise sites. Protocol code in internal/kv and
// internal/pool must fail with the typed sentinels callers errors.Is
// against (ErrShardDown, ErrUnavailable, ErrFrontDown, ErrBadKey,
// ErrDurabilityViolation, the structured ShardFullError and
// PartialResultError, ...): the fault-campaign degradation contract
// (docs/faults.md) is built on callers being able to classify failures.
//
// The analyzer flags, inside function bodies of those packages:
//
//   - fmt.Errorf calls whose format string does not wrap anything with
//     %w — the resulting error matches no sentinel;
//   - errors.New calls — a fresh unwrappable error (package-level
//     errors.New declarations are the taxonomy's sentinels and stay
//     allowed).
//
// A raise site that is genuinely outside the protocol surface (e.g. a
// CLI flag parse error) can carry //cxl0:adhoc-error with a rationale.
// See docs/analysis.md.
package errtaxonomy

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"cxl0/internal/analysis/annot"
)

var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc: "protocol raise sites in internal/kv and internal/pool must fail with the typed error taxonomy\n\n" +
		"Callers errors.Is/errors.As against the kv sentinels; an ad-hoc fmt.Errorf or in-function errors.New " +
		"produces an error no caller can classify.",
	Run: run,
}

// checkedPkgs are the import paths whose raise sites must use the typed
// taxonomy.
var checkedPkgs = map[string]bool{
	"cxl0/internal/kv":   true,
	"cxl0/internal/pool": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !checkedPkgs[pass.Pkg.Path()] {
		return nil, nil
	}
	anns := annot.Gather(pass.Fset, pass.Files)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				switch {
				case obj.Pkg().Path() == "errors" && obj.Name() == "New":
					if !anns.Allows(call.Pos(), "adhoc-error") {
						pass.ReportRangef(call, "errors.New inside a function raises an error no caller can errors.Is: "+
							"use (or add) a sentinel from the kv error taxonomy, or annotate //cxl0:adhoc-error with a rationale")
					}
				case obj.Pkg().Path() == "fmt" && obj.Name() == "Errorf":
					if len(call.Args) == 0 {
						return true
					}
					format, known := stringConstant(pass, call.Args[0])
					if known && strings.Contains(format, "%w") {
						return true
					}
					if anns.Allows(call.Pos(), "adhoc-error") {
						return true
					}
					if !known {
						pass.ReportRangef(call, "fmt.Errorf with a non-constant format cannot be checked for %%w wrapping: "+
							"wrap a taxonomy sentinel explicitly, or annotate //cxl0:adhoc-error with a rationale")
						return true
					}
					pass.ReportRangef(call, "fmt.Errorf without %%w raises an error no caller can errors.Is: "+
						"wrap a sentinel from the kv error taxonomy, or annotate //cxl0:adhoc-error with a rationale")
				}
				return true
			})
		}
	}
	return nil, nil
}

// stringConstant resolves expr to its constant string value, if it has
// one.
func stringConstant(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
