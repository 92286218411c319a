package seam

import (
	"bytes"
	"go/ast"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestViolations walks testdata/pkg, whose b_test.go is not walked, under
// one row of each kind.
func TestViolations(t *testing.T) {
	t.Chdir(filepath.Join("testdata", "pkg"))
	p := Load(t)
	step := func(n ast.Node) bool { return Calls(n, "step") != nil }
	for _, tc := range []struct {
		row  Row
		want []string
	}{
		{Row{Name: "free file", Site: step, Files: []string{"b.go"}, Funcs: map[string]int{"pick": 2}}, nil},
		{Row{Name: "stray site", Site: step, Funcs: map[string]int{"pick": 0}, Fix: "call it in pick"},
			[]string{`b.go:7:36: stray site outside its seam, in "T.bump": call it in pick`}},
		{Row{Name: "exact count", Site: step, Funcs: map[string]int{"pick": 1, "T.bump": 0}},
			[]string{"exact count: 2 sites in pick, want exactly 1 — update the seam table if the seam moved"}},
		{Row{Name: "count in a free file", Site: step, Files: []string{"a.go"}, Funcs: map[string]int{"pick": 2, "T.bump": 1}},
			[]string{"count in a free file: 0 sites in pick, want exactly 2 — update the seam table if the seam moved"}},
		// names and Modes are two specs of one var declaration.
		{Row{Name: "consts", Site: p.Consts(t, "Mode"), Funcs: map[string]int{"names": 0, "Modes": 0}},
			[]string{`a.go:21:7: consts outside its seam, in "pick": `}},
		{Row{Name: "switches", Site: p.Switches(t, "Mode"), Funcs: map[string]int{"names": 0}},
			[]string{`a.go:20:2: switches outside its seam, in "pick": `}},
		{Row{Name: "assigns", Site: func(n ast.Node) bool { return Assigns(n, "n") }, Funcs: map[string]int{"T.bump": 2}}, nil},
	} {
		if got := p.violations(tc.row); !slices.Equal(got, tc.want) {
			t.Errorf("%s: %q, want %q", tc.row.Name, got, tc.want)
		}
	}
}

// TestOnlyWalker holds the module to one package walk: no other test
// parses or type-checks Go source itself, and only tests import this
// package.
func TestOnlyWalker(t *testing.T) {
	root := filepath.Join("..", "..")
	self := filepath.Join(root, "internal", "seam")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == self || d.Name() == "testdata" || d.Name() == ".git" || d.Name() == "third_party") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(path, "_test.go")
		if test && (bytes.Contains(src, []byte(`"go/parser"`)) || bytes.Contains(src, []byte(`"go/types"`))) {
			t.Errorf("%s walks a package itself; add a row to its seam table (internal/seam)", path)
		}
		if !test && bytes.Contains(src, []byte(`"cxl0/internal/seam"`)) {
			t.Errorf("%s imports internal/seam outside a test", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
