// Package strategyswitch defines an exhaustiveness analyzer for the
// simulator's closed enums: any switch over kv.Strategy, core.Op (the
// litmus op kinds) or workload.OpKind must either cover every declared
// constant of the type or carry an explicit default clause. The next
// strategy or op added to the simulator then fails cxl0-lint (and so
// `go test ./...`) at every dispatch it silently falls through, instead
// of doing nothing. internal/kv and internal/flit have no strategy switch
// either: a strategy is a row of a rules table (kv's persist.go, flit's
// flit.go), which each package's TestStrategyTable holds to the declared
// strategies.
package strategyswitch

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "strategyswitch",
	Doc: "switches over the simulator's closed enums must be exhaustive or carry an explicit default\n\n" +
		"Covers kv.Strategy, core.Op and workload.OpKind: adding an enumerator must break every dispatch " +
		"that has not decided what to do with it.",
	Run: run,
}

// enums are the qualified named types whose switches must be exhaustive.
var enums = map[string]bool{
	"cxl0/internal/kv.Strategy":     true,
	"cxl0/internal/core.Op":         true,
	"cxl0/internal/workload.OpKind": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := pass.TypesInfo.TypeOf(sw.Tag)
			named, ok := tagType.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			qualified := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if !enums[qualified] {
				return true
			}

			covered := map[string]bool{}
			hasDefault := false
			for _, stmt := range sw.Body.List {
				cc := stmt.(*ast.CaseClause)
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, expr := range cc.List {
					if tv, ok := pass.TypesInfo.Types[expr]; ok && tv.Value != nil {
						covered[tv.Value.ExactString()] = true
					}
				}
			}
			if hasDefault {
				return true
			}

			var missing []string
			for _, c := range enumerators(named) {
				if !covered[c.Val().ExactString()] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) > 0 {
				pass.ReportRangef(sw.Tag, "switch over %s is not exhaustive: missing %s (add the cases, or an explicit default that decides what a new enumerator means here)",
					qualified, strings.Join(missing, ", "))
			}
			return true
		})
	}
	return nil, nil
}

// enumerators returns the package-level constants of exactly the named
// type, in declaration-value order. Blank constants and count sentinels
// (names beginning "num") are not enumerators.
func enumerators(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Name() == "_" || strings.HasPrefix(c.Name(), "num") {
			continue
		}
		if types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		vi, _ := constant.Int64Val(out[i].Val())
		vj, _ := constant.Int64Val(out[j].Val())
		if vi != vj {
			return vi < vj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}
