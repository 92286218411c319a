package memsim

import (
	"go/ast"
	"go/token"
	"testing"

	"cxl0/internal/seam"
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
// else fails its row (see internal/seam).
func TestSeams(t *testing.T) {
	seam.Load(t).Check(t, []seam.Row{
		{Name: "core.ApplyInPlace calls", Site: callsCore("ApplyInPlace"), Funcs: map[string]int{"Cluster.stepLocked": 1},
			Fix: "step the state through Cluster.stepLocked"},
		{Name: "core.ApplyTauWordInPlace calls", Site: callsCore("ApplyTauWordInPlace"), Funcs: map[string]int{"Cluster.applyTauLocked": 1},
			Fix: "take τ steps through Cluster.applyTauLocked"},
		{Name: "core.ApplyTauInPlace calls", Site: callsCore("ApplyTauInPlace"),
			Fix: "take τ a word at a time (Cluster.applyTauLocked)"},
		{Name: "core.ApplyStoreWordInPlace calls", Site: callsCore("ApplyStoreWordInPlace"), Funcs: map[string]int{"Cluster.storeLocked": 1},
			Fix: "store through Cluster.storeLocked"},
		{Name: "core.CrashInPlace calls", Site: callsCore("CrashInPlace"), Funcs: map[string]int{"Cluster.Crash": 1},
			Fix: "crash through Cluster.Crash"},
		{Name: "writes of the hot overlay", Site: writesHot, Funcs: map[string]int{
			"NewCluster": 0, "Cluster.followLocked": 0, "Cluster.applyTauLocked": 0, "Cluster.coolLocked": 0, "Cluster.onlyCopyLocked": 0,
		}, Fix: "move the overlay in the follow table (Cluster.followLocked) or the τ step"},
		// OwnerThrough, the owner and how far it owns on, is a site too;
		// cluster.go asks freely.
		{Name: "topo.Owner calls in thread.go", Site: func(n ast.Node) bool {
			return seam.Calls(n, "Owner") != nil || seam.Calls(n, "OwnerThrough") != nil
		}, Files: []string{"cluster.go"}, Funcs: map[string]int{"Thread.beginLocked": 1, "Thread.reachLocked": 1, "Thread.Local": 1},
			Fix: "ask for the owner in Thread.beginLocked or Thread.reachLocked"},
		// NowNS reads the published bits without the lock, so the clock and
		// its copy may only move together, where a primitive is charged.
		{Name: "assignments to clockNS", Site: func(n ast.Node) bool { return seam.Assigns(n, "clockNS") },
			Funcs: map[string]int{"Cluster.chargeLocked": 0}, Fix: "charge the primitive through Cluster.chargeLocked"},
		{Name: "stores of the published clock", Site: func(n ast.Node) bool { return seam.CallsOn(n, "clockBits", "Store") },
			Funcs: map[string]int{"Cluster.chargeLocked": 1}, Fix: "charge the primitive through Cluster.chargeLocked"},
		{Name: "uses of the cluster lock in NowNS", Site: func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			found := false
			if ok && fn.Name.Name == "NowNS" {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					found = found || seam.Selects(n, "mu")
					return !found
				})
			}
			return found
		}, Fix: "read the published clock bits"},
	})
}

// callsCore returns the site of a call core.name(...).
func callsCore(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		c := seam.Calls(n, name)
		if c == nil {
			return false
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		return ok && seam.IsIdent(sel.X, "core")
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
			found = found || seam.Selects(n, "hot")
			return !found
		})
	}
	return found
}
