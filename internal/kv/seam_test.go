package kv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"slices"
	"strings"
	"testing"
)

// A seam is one construct this package keeps in one place, so that an
// argument made about that place ("every move of a key's visible state
// snoops the cache") holds for the whole package. TestSeams fails when a
// site of the construct appears anywhere else in the non-test sources.
type seam struct {
	name string
	// site reports whether n is a site of the construct.
	site func(n ast.Node) bool
	// files may hold any number of sites; funcs ("Recv.name", or "name"
	// for a plain function) must each hold exactly one — or, listed n
	// times, exactly n.
	files []string
	funcs []string
	// fix is what to do instead of adding a site.
	fix string
}

var seams = []seam{
	{
		// Config.Strategy is resolved to a persister once, in Open; no
		// other code may read it apart from the strategy table (persist.go)
		// and the Config and Strategy declarations (kv.go).
		name:  "cfg.Strategy reads",
		site:  cfgStrategyRead,
		files: []string{"persist.go", "kv.go"},
		funcs: []string{"Open"},
		fix:   "dispatch through the persister (persist.go)",
	},
	{
		// keys is the tip index's ordered key set. The range cursor
		// (view.seek, cursor.advance) walks it through the gate and the
		// shadow, and lives in view.go with them.
		name: "the tip index, the watermark shadow and the slot encoding's base",
		site: func(n ast.Node) bool {
			return selects(n, "index") || selects(n, "keys") || selects(n, "shadow") || selects(n, "logCap")
		},
		files: []string{"view.go"},
		fix:   "go through a view method (view.go)",
	},
	{
		// One range read, over one store or many: a seek per shard, the
		// walk of a partitioned shard's whole run, the merge's step.
		name:  "the view's range cursor",
		site:  func(n ast.Node) bool { return calls(n, "seek") != nil || calls(n, "advance") != nil },
		files: []string{"view.go"},
		funcs: []string{"scanLocked", "scanLocked", "scanLocked"},
		fix:   "range reads are scanLocked's merge over the stores' shard cursors",
	},
	{
		name:  "the view's per-key write step",
		site:  func(n ast.Node) bool { return callsOn(n, "view", "write") },
		funcs: []string{"Store.keyMoved"},
		fix:   "a key's visible state moves in Store.keyMoved, which also snoops the read cache",
	},
	{
		name:  "the view's per-key ack step",
		site:  func(n ast.Node) bool { return callsOn(n, "view", "ack") },
		funcs: []string{"Store.keyMoved"},
		fix:   "a key's visible state moves in Store.keyMoved, which also snoops the read cache",
	},
	{
		name:  "the per-key cache snoop",
		site:  func(n ast.Node) bool { return calls(n, "invalidateKeyLocked") != nil },
		funcs: []string{"Store.keyMoved"},
		fix:   "a key's visible state moves in Store.keyMoved, which also snoops the read cache",
	},
	{
		name:  "the bucket- and shard-scoped cache snoops",
		site:  func(n ast.Node) bool { return calls(n, "invalidateMatchLocked") != nil },
		funcs: []string{"Store.flipBucket", "Store.invalidateShardLocked"},
		fix:   "bulk moves of visible state are Store.flipBucket (a bucket) and the callers of invalidateShardLocked (a shard)",
	},
	{
		name:  "the demand-read cache lookup",
		site:  func(n ast.Node) bool { return calls(n, "lookupLocked") != nil },
		funcs: []string{"Store.readValue"},
		fix:   "serve demand reads through Store.readValue",
	},
	{
		name: "the demand-read cache fill",
		site: func(n ast.Node) bool {
			c := calls(n, "fillLocked")
			return c != nil && len(c.Args) == 3 && isIdent(c.Args[2], "false")
		},
		funcs: []string{"Store.readValue"},
		fix:   "serve demand reads through Store.readValue",
	},
	{
		// One demand read; the two churn reads fold (compaction) or copy
		// (migration) whole sets of records on the shard's own thread.
		// They are the only loads of the medium outside medium.go.
		name:  "loads of an encoded slot's value",
		site:  func(n ast.Node) bool { return calls(n, "valLocOf") != nil },
		funcs: []string{"Store.readValue", "Store.compactLocked", "Store.migrateBucket"},
		fix:   "serve demand reads through Store.readValue",
	},
	{
		// The medium's format — record layout, region addressing, the
		// Load×3 read, the checksum-zeroing retire — is medium.go's; the
		// strategy's word writer (persist.go) stores and flushes through
		// region.loc. A site is a Load, an MStore or a word address.
		name: "Loads and MStores of a shard's medium",
		site: func(n ast.Node) bool {
			return calls(n, "Load") != nil || calls(n, "MStore") != nil || calls(n, "loc") != nil
		},
		files: []string{"medium.go", "persist.go"},
		funcs: []string{"Store.readValue", "Store.compactLocked", "Store.migrateBucket"},
		fix:   "read, retire and address records through region (medium.go)",
	},
	{
		// The watermark moves at a batch's commit point (ackFlight) and
		// catches up with the log tip when the log was committed whole,
		// cut back or restarted (shard.catchUp, which also closes the
		// batch and drops the view's shadow).
		name:  "assignments to a shard's acked watermark",
		site:  func(n ast.Node) bool { return assigns(n, "acked") },
		funcs: []string{"Store.ackFlight", "shard.catchUp"},
		fix:   "move the watermark through shard.catchUp (shard.go)",
	},
	{
		// A shard's clocks move through shard.charge (a span, churn or
		// not), shard.stallTo (a pipeline stall) and shard.resetClocks —
		// the hooks a cost ledger or a bounded histogram hangs on.
		name:  "assignments to a shard's busy and churn clocks",
		site:  func(n ast.Node) bool { return assigns(n, "busyNS", "churnNS") },
		files: []string{"shard.go"},
		fix:   "charge the span through shard.charge (shard.go)",
	},
	{
		name:  "assignments to a shard's flight queue and flush lane",
		site:  func(n ast.Node) bool { return assigns(n, "flights", "laneEnd") },
		files: []string{"pipeline.go"},
		fix:   "go through the flight code (pipeline.go); a clock reset rebases them in shard.rebaseFlights",
	},
	{
		// A commit's flush cost must land on the shard's busy clock
		// exactly once: inside commitCharged's own span, or inside the
		// span its caller already has open (an append's; a migration's
		// copy and move-out phases, which are churn).
		name:  "in-place commits",
		site:  func(n ast.Node) bool { return calls(n, "commitLocked") != nil },
		funcs: []string{"Store.commitCharged", "Store.append", "Store.migrateBucket", "Store.migrateBucket"},
		fix:   "commit through Store.commitCharged, which charges the flush to the shard",
	},
	{
		// The shapes a hand-derived log-slot-vs-snapshot-slot encoding
		// takes: `slot >= sh.cap`, `sh.cap + i`. Comparing a log length to
		// the capacity is not one of them.
		name: "slot arithmetic on a shard's capacity",
		site: capSlotArith,
		fix:  "decode slots with view.decode (shard.valLocOf, shard.mirrorVal)",
	},
}

// TestSeams holds every non-test file of the package to the seam table.
func TestSeams(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	logSize(t, pkgs)
	for _, sm := range seams {
		t.Run(sm.name, func(t *testing.T) {
			perFunc := map[string]int{}
			for _, pkg := range pkgs { //cxl0:order-insensitive — every file is checked, order-free
				for path, file := range pkg.Files { //cxl0:order-insensitive — as above
					if slices.Contains(sm.files, path) {
						continue
					}
					for _, decl := range file.Decls {
						fn := funcName(decl)
						ast.Inspect(decl, func(n ast.Node) bool {
							if n == nil || !sm.site(n) {
								return true
							}
							perFunc[fn]++
							if !slices.Contains(sm.funcs, fn) {
								t.Errorf("%s: %s outside its seam (%s): %s",
									fset.Position(n.Pos()), sm.name, fn, sm.fix)
							}
							return true
						})
					}
				}
			}
			want := map[string]int{}
			for _, fn := range sm.funcs {
				want[fn]++
			}
			for _, fn := range slices.Compact(slices.Sorted(slices.Values(sm.funcs))) {
				if perFunc[fn] != want[fn] {
					t.Errorf("%s: %d sites in %s, want exactly %d — update the seam table if the seam moved", sm.name, perFunc[fn], fn, want[fn])
				}
			}
		})
	}
}

// logSize logs (-v) the size metric CHANGES.md entries quote for this
// package: lines of the non-test sources that are neither blank nor a
// // comment, per file and in total.
func logSize(t *testing.T, pkgs map[string]*ast.Package) {
	var files []string
	for _, pkg := range pkgs { //cxl0:order-insensitive — sorted below
		for path := range pkg.Files { //cxl0:order-insensitive — sorted below
			files = append(files, path)
		}
	}
	slices.Sort(files)
	total := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, line := range strings.Split(string(src), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "//") {
				n++
			}
		}
		t.Logf("size: %-14s %5d", path, n)
		total += n
	}
	t.Logf("size: %-14s %5d (non-blank, non-// lines of the non-test sources)", "total", total)
}

// funcName names a declaration for the seam table: "Recv.name" for a
// method, "name" for a function, "" for anything else.
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
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// selects reports whether n is a selector expression x.name.
func selects(n ast.Node, name string) bool {
	sel, ok := n.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// assigns reports whether n assigns to (=, op=, ++, --) an expression
// that selects one of the named fields: x.name, x.name[i].f, ...
func assigns(n ast.Node, names ...string) bool {
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

// calls returns n as a call of a method or function called name, else nil.
func calls(n ast.Node, name string) *ast.CallExpr {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if selects(c.Fun, name) || isIdent(c.Fun, name) {
		return c
	}
	return nil
}

// callsOn reports whether n is a call x.field.name(...).
func callsOn(n ast.Node, field, name string) bool {
	c := calls(n, name)
	if c == nil {
		return false
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	return ok && selects(sel.X, field)
}

// cfgStrategyRead reports whether n reads cfg.Strategy or x.cfg.Strategy.
func cfgStrategyRead(n ast.Node) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Strategy" {
		return false
	}
	x := sel.X
	if inner, ok := x.(*ast.SelectorExpr); ok {
		x = inner.Sel
	}
	return isIdent(x, "cfg")
}

// capSlotArith reports whether n offsets a value by x.cap (x.cap + i) or
// tests a value that is not a length against it (slot >= x.cap).
func capSlotArith(n ast.Node) bool {
	b, ok := n.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch b.Op {
	case token.ADD:
		return selects(b.X, "cap") || selects(b.Y, "cap")
	case token.GEQ, token.LSS:
		return selects(b.Y, "cap") && calls(b.X, "len") == nil
	}
	return false
}
