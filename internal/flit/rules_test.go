package flit

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"strings"
	"testing"
)

// TestStrategyTable holds the rules table to the declared strategies: one
// row each, with a unique name that String returns, and rows whose
// decisions fit together.
func TestStrategyTable(t *testing.T) {
	if len(rules) != len(Strategies) {
		t.Fatalf("%d rows for %d strategies", len(rules), len(Strategies))
	}
	names := map[string]bool{}
	for _, s := range Strategies {
		r, err := s.row()
		if err != nil {
			t.Fatalf("strategy %d has no row: %v", int(s), err)
		}
		if r.name == "" || names[r.name] || s.String() != r.name {
			t.Errorf("strategy %d: name %q empty, not unique or not String's %q", int(s), r.name, s.String())
		}
		names[r.name] = true
		flushed := r.write == writeAlg1 || r.write == writeAlg2
		if flushed != (r.flush != flushNone) {
			t.Errorf("%v: write rule %d with flush %d — a cached write and flush needs a flush, and only it", s, r.write, r.flush)
		}
		if r.help == helpCounter && !flushed {
			t.Errorf("%v: loads check a counter no write of the rule raises", s)
		}
		if r.sound && (r.write == writeCached || r.flush == flushLocal || r.help == helpNever && r.write != writePersistent) {
			t.Errorf("%v: a sound rule with a write that may not persist", s)
		}
		if r.guarded && r.write != writeAlg2 {
			t.Errorf("%v: the epoch guard serves only Algorithm 2's rule", s)
		}
	}
}

// TestUnknownStrategy: a strategy outside the table names itself, is not
// correct, and cannot start a session that would persist nothing.
func TestUnknownStrategy(t *testing.T) {
	for _, c := range []struct {
		bad  Strategy
		want string
	}{{-1, "Strategy(-1)"}, {Strategy(len(Strategies)), "Strategy(6)"}} {
		bad, want := c.bad, c.want
		if got := bad.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if bad.Correct() {
			t.Errorf("%v.Correct() = true", bad)
		}
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("NewSession(%v) panicked with %v, want an error naming the strategy", bad, err)
				}
			}()
			NewSession(bad, nil)
		}()
	}
}

// TestNoStrategyBranch holds every strategy decision to the rules table:
// the package's sources switch over no Strategy and name a Strategy
// constant only in the declarations of rules and Strategies. A strategy
// added without a row, or a branch on one, fails here.
func TestNoStrategyBranch(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs { //cxl0:order-insensitive — the files are type-checked together
		for _, f := range pkg.Files { //cxl0:order-insensitive — as above
			files = append(files, f)
		}
	}
	// Imports stay unresolved: Strategy and its constants are declared
	// here, so their uses type-check without them.
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: noImports{}, Error: func(error) {}}
	pkg, _ := conf.Check("flit", fset, files, info)
	strategy := pkg.Scope().Lookup("Strategy").Type()
	for _, f := range files {
		for _, decl := range f.Decls {
			if g, ok := decl.(*ast.GenDecl); ok && g.Tok == token.VAR && declares(g, "rules", "Strategies") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SwitchStmt:
					if n.Tag != nil && types.Identical(info.TypeOf(n.Tag), strategy) {
						t.Errorf("%s: switch over a Strategy — read the decision from its row in rules", fset.Position(n.Pos()))
					}
				case *ast.Ident:
					if c, ok := info.Uses[n].(*types.Const); ok && types.Identical(c.Type(), strategy) {
						t.Errorf("%s: %s named outside rules and Strategies — read the decision from its row", fset.Position(n.Pos()), n.Name)
					}
				}
				return true
			})
		}
	}
}

// declares reports whether g declares one of names.
func declares(g *ast.GenDecl, names ...string) bool {
	for _, spec := range g.Specs {
		for _, id := range spec.(*ast.ValueSpec).Names {
			for _, name := range names {
				if id.Name == name {
					return true
				}
			}
		}
	}
	return false
}

// noImports resolves no import.
type noImports struct{}

func (noImports) Import(path string) (*types.Package, error) {
	return nil, errors.New("not loaded: " + path)
}
