// Package guardedby defines an annotation-driven lock-discipline
// analyzer. A struct field annotated
//
//	//cxl0:guarded-by mu
//
// may only be read or written while a mutex named mu is held. The
// analyzer tracks Lock/RLock/Unlock/RUnlock calls in source order
// through each function body (a deferred Unlock does not release for
// the remainder of the body) and reports any guarded access outside a
// held region. Two escapes express "the lock is held by contract":
// functions whose name ends in Locked (the repo's caller-holds
// convention, e.g. commitLocked) and functions annotated
// //cxl0:locked mu — both are also the right marker for constructors
// whose receiver has not escaped yet.
//
// The tracking is deliberately a source-order approximation, not a
// path-sensitive proof: it is the static half of a pincer whose dynamic
// half is the -race CI job over the same state (docs/analysis.md lays
// out what each half catches). Composite-literal keys are not accesses;
// the contents of a func literal are checked under the lock state at
// its creation point.
package guardedby

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"cxl0/internal/analysis/annot"
)

var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "fields annotated //cxl0:guarded-by mu may only be accessed while the named mutex is held\n\n" +
		"Protects the pipelined commit path's crash-safety argument: the acked watermark, flight queue and " +
		"the view's mark only change under the shard lock.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	guarded := map[types.Object]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				lock, ok := annot.In([]*ast.CommentGroup{field.Doc, field.Comment}, "guarded-by")
				if !ok {
					continue
				}
				lock = firstWord(lock)
				if lock == "" {
					pass.ReportRangef(field, "//cxl0:guarded-by needs the mutex field name, e.g. //cxl0:guarded-by mu")
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guarded[obj] = lock
					}
				}
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return nil, nil
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue // caller-holds convention
			}
			w := &walker{pass: pass, guarded: guarded, held: map[string]bool{}}
			if lock, ok := annot.In([]*ast.CommentGroup{fn.Doc}, "locked"); ok {
				for _, name := range strings.Fields(lock) {
					w.held[name] = true
				}
			}
			w.walk(fn.Body)
		}
	}
	return nil, nil
}

func firstWord(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// walker checks one function body, tracking which mutex names are held
// in source order.
type walker struct {
	pass    *analysis.Pass
	guarded map[types.Object]string
	held    map[string]bool
	inDefer bool
}

func (w *walker) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		// Arguments and receiver evaluate before the call's effect.
		for _, arg := range n.Args {
			w.walk(arg)
		}
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
			w.walk(sel.X) // the receiver chain may itself access guarded fields
			if lockName, ok := mutexName(sel); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if !w.inDefer {
						w.held[lockName] = true
					}
				case "Unlock", "RUnlock":
					if !w.inDefer {
						delete(w.held, lockName)
					}
				}
				return
			}
			w.checkSelector(sel)
			return
		}
		w.walk(n.Fun)

	case *ast.DeferStmt:
		saved := w.inDefer
		w.inDefer = true
		w.walk(n.Call)
		w.inDefer = saved

	case *ast.SelectorExpr:
		w.walk(n.X)
		w.checkSelector(n)

	case *ast.CompositeLit:
		// Struct-literal keys name fields but do not access them on a
		// live value; the values are ordinary expressions.
		w.walk(n.Type)
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if _, isIdent := kv.Key.(*ast.Ident); isIdent {
					w.walk(kv.Value)
					continue
				}
			}
			w.walk(elt)
		}

	default:
		inorder(n, w.walk)
	}
}

// checkSelector reports a guarded-field access outside its lock.
func (w *walker) checkSelector(sel *ast.SelectorExpr) {
	obj := w.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		obj = w.pass.TypesInfo.Defs[sel.Sel]
	}
	lockName, ok := w.guarded[obj]
	if !ok {
		return
	}
	if !w.held[lockName] {
		w.pass.ReportRangef(sel, "%s is guarded by %s (//cxl0:guarded-by): lock %s on every path to this access, "+
			"or mark the enclosing function //cxl0:locked %s (or name it ...Locked) if its caller holds the lock",
			sel.Sel.Name, lockName, lockName, lockName)
	}
}

// mutexName reports whether sel is a Lock/RLock/Unlock/RUnlock method
// selection on a sync.Mutex or sync.RWMutex, returning the name of the
// mutex-valued field or variable it locks.
func mutexName(sel *ast.SelectorExpr) (string, bool) {
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		return x.Sel.Name, true
	}
	return "", false
}

// inorder visits n's immediate children in source order.
func inorder(n ast.Node, visit func(ast.Node)) {
	var children []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil || c == n {
			return c == n
		}
		children = append(children, c)
		return false
	})
	for _, c := range children {
		visit(c)
	}
}
