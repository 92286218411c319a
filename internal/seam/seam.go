// Package seam holds a package's non-test sources to its seam table: the
// one walker behind internal/kv's, internal/memsim's and internal/flit's
// TestSeams. A seam is one construct a package keeps in one place, so that
// an argument made about that place ("every move of a key's visible state
// snoops the cache", "a strategy's write rule is its row") holds for the
// whole package; a site of the construct anywhere else fails its row.
// Only tests import it, as they do internal/golden.
//
//	func TestSeams(t *testing.T) { seam.Load(t).Check(t, seams) }
package seam

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// A Row is one seam of a package's table.
type Row struct {
	Name string
	// Site reports whether n is a site of the construct.
	Site func(n ast.Node) bool
	// Files may hold any number of sites (base names of the package's
	// files); they are not walked.
	Files []string
	// Funcs are the only declarations outside Files that may hold a site
	// ("name" for a function, "Recv.name" for a method, a var, const or
	// type spec's first name), each with the exact number of sites it
	// must hold; 0 allows any number.
	Funcs map[string]int
	// Fix is what to do instead of adding a site.
	Fix string
}

// Package is the non-test sources of the package in the working
// directory, parsed once and type-checked with its imports unresolved:
// the types it declares, and the uses of them, are known.
type Package struct {
	fset  *token.FileSet
	files []*ast.File
	names []string // base name of each file
	info  *types.Info
	types *types.Package
}

// Load parses and type-checks the package's non-test sources and logs
// (-v) the size metric CHANGES.md entries quote for it: lines that are
// neither blank nor a // comment, per file and in total.
func Load(t testing.TB) *Package {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	p := &Package{fset: token.NewFileSet()}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(p.fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.files, p.names = append(p.files, f), append(p.names, name)
		n := 0
		for _, line := range strings.Split(string(src), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "//") {
				n++
			}
		}
		t.Logf("size: %-14s %5d", name, n)
		total += n
	}
	t.Logf("size: %-14s %5d (non-blank, non-// lines of the non-test sources)", "total", total)
	p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: noImports{}, Error: func(error) {}}
	p.types, _ = conf.Check(p.files[0].Name.Name, p.fset, p.files, p.info)
	return p
}

// noImports resolves no import: a row's types are the package's own.
type noImports struct{}

func (noImports) Import(path string) (*types.Package, error) {
	return nil, errors.New("not loaded: " + path)
}

// Check runs each row as a subtest of t.
func (p *Package) Check(t *testing.T, rows []Row) {
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			for _, v := range p.violations(r) {
				t.Error(v)
			}
		})
	}
}

// violations lists where the sources break r: each site outside r.Files
// and r.Funcs, and each function of r.Funcs whose site count is not the
// one it states.
func (p *Package) violations(r Row) []string {
	var out []string
	got := map[string]int{}
	for i, f := range p.files {
		if slices.Contains(r.Files, p.names[i]) {
			continue
		}
		for _, decl := range f.Decls {
			for name, n := range declared(decl) {
				ast.Inspect(n, func(n ast.Node) bool {
					if n == nil || !r.Site(n) {
						return true
					}
					got[name]++
					if _, ok := r.Funcs[name]; !ok {
						out = append(out, fmt.Sprintf("%s: %s outside its seam, in %q: %s", p.fset.Position(n.Pos()), r.Name, name, r.Fix))
					}
					return true
				})
			}
		}
	}
	for _, fn := range slices.Sorted(maps.Keys(r.Funcs)) {
		if want := r.Funcs[fn]; want > 0 && got[fn] != want {
			out = append(out, fmt.Sprintf("%s: %d sites in %s, want exactly %d — update the seam table if the seam moved", r.Name, got[fn], fn, want))
		}
	}
	return out
}

// declared yields the parts of a declaration under the names Row.Funcs
// uses: the function or method, or each spec of a var, const or type
// declaration ("" for an import).
func declared(decl ast.Decl) func(yield func(string, ast.Node) bool) {
	return func(yield func(string, ast.Node) bool) {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			yield(funcName(d), d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				name := ""
				switch s := spec.(type) {
				case *ast.ValueSpec:
					name = s.Names[0].Name
				case *ast.TypeSpec:
					name = s.Name.Name
				}
				if !yield(name, spec) {
					return
				}
			}
		}
	}
}

func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// typeNamed is the type the package declares under name.
func (p *Package) typeNamed(t testing.TB, name string) types.Type {
	t.Helper()
	obj := p.types.Scope().Lookup(name)
	if _, ok := obj.(*types.TypeName); !ok {
		t.Fatalf("the package declares no type %s", name)
	}
	return obj.Type()
}

// Switches returns the site of a switch over a value of the package's
// type name.
func (p *Package) Switches(t testing.TB, name string) func(ast.Node) bool {
	typ := p.typeNamed(t, name)
	return func(n ast.Node) bool {
		s, ok := n.(*ast.SwitchStmt)
		return ok && s.Tag != nil && types.Identical(p.info.TypeOf(s.Tag), typ)
	}
}

// Consts returns the site of a use of a constant of the package's type
// name (its declaration is not a use).
func (p *Package) Consts(t testing.TB, name string) func(ast.Node) bool {
	typ := p.typeNamed(t, name)
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return false
		}
		c, ok := p.info.Uses[id].(*types.Const)
		return ok && types.Identical(c.Type(), typ)
	}
}

// Selects reports whether n is a selector expression x.name.
func Selects(n ast.Node, name string) bool {
	sel, ok := n.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// IsIdent reports whether e is the identifier name.
func IsIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// Calls returns n as a call of a method or function called name, else nil.
func Calls(n ast.Node, name string) *ast.CallExpr {
	c, ok := n.(*ast.CallExpr)
	if ok && (Selects(c.Fun, name) || IsIdent(c.Fun, name)) {
		return c
	}
	return nil
}

// CallsOn reports whether n is a call x.field.name(...).
func CallsOn(n ast.Node, field, name string) bool {
	c := Calls(n, name)
	if c == nil {
		return false
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	return ok && Selects(sel.X, field)
}

// Assigns reports whether n assigns to (=, op=, ++, --) an expression that
// selects one of the named fields: x.name, x.name[i].f, ...
func Assigns(n ast.Node, names ...string) bool {
	var lhs []ast.Expr
	switch st := n.(type) {
	case *ast.AssignStmt:
		lhs = st.Lhs
	case *ast.IncDecStmt:
		lhs = []ast.Expr{st.X}
	}
	found := false
	for _, e := range lhs {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && slices.Contains(names, sel.Sel.Name) {
				found = true
			}
			return !found
		})
	}
	return found
}
