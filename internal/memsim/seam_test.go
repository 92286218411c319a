package memsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSeams holds the non-test sources of the package to the shape its
// claim rests on — "the runtime produces exactly the traces the LTS
// allows, and the overlay never influences them": the state is stepped in
// four functions, one per core entry point (τ a word at a time: the rule
// of one line, core.ApplyTauInPlace, is not called; a record's stores a
// word at a time too); the clean-copy overlay moves
// only in the follow table, the τ step and the helpers they share; a
// thread primitive asks the topology for a line's owner once, in
// beginLocked, or once per owner's stretch of a range, in reachLocked; and
// the simulated clock moves, and is published to its
// lock-free readers, only where a primitive is charged. A site anywhere
// else fails its row (in the manner of internal/kv's seam table).
func TestSeams(t *testing.T) {
	seams := []struct {
		name string
		site func(n ast.Node) bool
		file string // "": every non-test file
		// funcs are the only functions that may hold a site; a count > 0
		// is the exact number of sites the function must hold.
		funcs map[string]int
	}{
		{"core.ApplyInPlace calls", callsCore("ApplyInPlace"), "", map[string]int{"Cluster.stepLocked": 1}},
		{"core.ApplyTauWordInPlace calls", callsCore("ApplyTauWordInPlace"), "", map[string]int{"Cluster.applyTauLocked": 1}},
		{"core.ApplyTauInPlace calls", callsCore("ApplyTauInPlace"), "", nil},
		{"core.ApplyStoreWordInPlace calls", callsCore("ApplyStoreWordInPlace"), "", map[string]int{"Cluster.storeLocked": 1}},
		{"core.CrashInPlace calls", callsCore("CrashInPlace"), "", map[string]int{"Cluster.Crash": 1}},
		{"writes of the hot overlay", writesHot, "", map[string]int{
			"NewCluster": 0, "Cluster.followLocked": 0, "Cluster.applyTauLocked": 0, "Cluster.coolLocked": 0, "Cluster.onlyCopyLocked": 0,
		}},
		// OwnerThrough, the owner and how far it owns on, is a site too.
		{"topo.Owner calls in thread.go", func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			return ok && (selects(c.Fun, "Owner") || selects(c.Fun, "OwnerThrough"))
		}, "thread.go", map[string]int{"Thread.beginLocked": 1, "Thread.reachLocked": 1, "Thread.Local": 1}},
		// NowNS reads the published bits without the lock, so the clock and
		// its copy may only move together, where a primitive is charged.
		{"assignments to clockNS", func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				return slices.ContainsFunc(n.Lhs, func(e ast.Expr) bool { return selects(e, "clockNS") })
			case *ast.IncDecStmt:
				return selects(n.X, "clockNS")
			}
			return false
		}, "", map[string]int{"Cluster.chargeLocked": 0}},
		{"stores of the published clock", func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			return ok && selects(c.Fun, "Store") && selects(c.Fun.(*ast.SelectorExpr).X, "clockBits")
		}, "", map[string]int{"Cluster.chargeLocked": 1}},
		{"uses of the cluster lock in NowNS", func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			found := false
			if ok && fn.Name.Name == "NowNS" {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					found = found || selects(n, "mu")
					return !found
				})
			}
			return found
		}, "", nil},
	}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range seams {
		t.Run(sm.name, func(t *testing.T) {
			got := map[string]int{}
			for _, pkg := range pkgs { //cxl0:order-insensitive — every file is checked, order-free
				for path, file := range pkg.Files { //cxl0:order-insensitive — as above
					if sm.file != "" && filepath.Base(path) != sm.file {
						continue
					}
					for _, decl := range file.Decls {
						fn := funcName(decl)
						ast.Inspect(decl, func(n ast.Node) bool {
							if n != nil && sm.site(n) {
								got[fn]++
								if _, ok := sm.funcs[fn]; !ok {
									t.Errorf("%s: %s outside their seam, in %q", fset.Position(n.Pos()), sm.name, fn)
								}
							}
							return true
						})
					}
				}
			}
			for fn, want := range sm.funcs { //cxl0:order-insensitive — independent per-function asserts
				if want > 0 && got[fn] != want {
					t.Errorf("%s: %d in %s, want exactly %d — update the table if the seam moved", sm.name, got[fn], fn, want)
				}
			}
		})
	}
}

// funcName names a declaration: "Recv.name" for a method, "name" for a
// function, "" for anything else.
func funcName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return recv.(*ast.Ident).Name + "." + fn.Name.Name
}

// selects reports whether n is a selector expression x.name.
func selects(n ast.Node, name string) bool {
	sel, ok := n.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// callsCore returns the site of a call core.name(...).
func callsCore(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || !selects(c.Fun, name) {
			return false
		}
		pkg, ok := c.Fun.(*ast.SelectorExpr).X.(*ast.Ident)
		return ok && pkg.Name == "core"
	}
}

// writesHot reports whether n can change a hot set: a method call other
// than Has on an expression that selects .hot, an assignment to one, or
// its address taken.
func writesHot(n ast.Node) bool {
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name != "Has" {
			targets = []ast.Expr{sel.X}
		}
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			targets = []ast.Expr{n.X}
		}
	}
	found := false
	for _, e := range targets {
		ast.Inspect(e, func(n ast.Node) bool {
			found = found || selects(n, "hot")
			return !found
		})
	}
	return found
}
