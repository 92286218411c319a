package kv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestStrategySeam keeps the persistence seam from silently regrowing:
// Config.Strategy is resolved to a persister once, in Open, and no other
// non-test code in this package may read it — apart from persist.go (the
// strategy table) and kv.go (the Config and Strategy declarations).
func TestStrategySeam(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		n := fi.Name()
		return !strings.HasSuffix(n, "_test.go") && n != "persist.go" && n != "kv.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs { //cxl0:order-insensitive — every file is checked, order-free
		for _, file := range pkg.Files { //cxl0:order-insensitive — as above
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "Open" && fn.Recv == nil {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Strategy" {
						return true
					}
					x := sel.X
					if inner, ok := x.(*ast.SelectorExpr); ok {
						x = inner.Sel
					}
					if id, ok := x.(*ast.Ident); ok && id.Name == "cfg" {
						t.Errorf("%s reads cfg.Strategy outside Open: dispatch through the persister (persist.go) instead",
							fset.Position(sel.Pos()))
					}
					return true
				})
			}
		}
	}
}
