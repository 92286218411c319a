package kv

import (
	"go/ast"
	"go/token"
	"testing"

	"cxl0/internal/seam"
)

// seams is the package's seam table (see internal/seam): each row is one
// construct this package keeps in one place, so that an argument made
// about that place ("every move of a key's visible state snoops the
// cache") holds for the whole package.
var seams = []seam.Row{
	{
		// Config.Strategy is resolved to its row of the strategy table
		// once, in Open; no other code may read it apart from the table
		// (persist.go) and the Config and Strategy declarations (kv.go).
		Name:  "cfg.Strategy reads",
		Site:  cfgStrategyRead,
		Files: []string{"persist.go", "kv.go"},
		Funcs: map[string]int{"Open": 1},
		Fix:   "read the store's row of the strategy table (persist.go)",
	},
	{
		// keys is the index's ordered key set. The range cursor
		// (view.seek, cursor.advance) walks it, and the mark says which
		// log records the index has taken; both live in view.go with them.
		Name: "the index, its key set, the view's mark and the slot encoding's base",
		Site: func(n ast.Node) bool {
			return seam.Selects(n, "index") || seam.Selects(n, "keys") || seam.Selects(n, "taken") || seam.Selects(n, "logCap")
		},
		Files: []string{"view.go"},
		Fix:   "go through a view method (view.go)",
	},
	{
		// One range read, over one store or many: a seek per shard, the
		// walk of a partitioned shard's whole run, the merge's step.
		Name:  "the view's range cursor",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "seek") != nil || seam.Calls(n, "advance") != nil },
		Files: []string{"view.go"},
		Funcs: map[string]int{"scanLocked": 3},
		Fix:   "range reads are scanLocked's merge over the stores' shard cursors",
	},
	{
		// Several stores' locks are held only by the calls over several
		// stores, each one cut of them (fanout.go), all in slice order.
		Name:  "takes of several stores' locks",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "lockStores") != nil },
		Funcs: map[string]int{"ScanStores": 1, "MetricsOf": 1, "MultiGetStores": 1, "ApplyStores": 1},
		Fix:   "a call over several stores is one of ScanStores, MetricsOf, MultiGetStores and ApplyStores",
	},
	{
		// A crash takes every write still waiting; the shard's keys are
		// snooped wholesale by the crash paths that call it.
		Name:  "the view's takes of log records",
		Site:  func(n ast.Node) bool { return seam.CallsOn(n, "view", "take") || seam.CallsOn(n, "view", "takeRest") },
		Funcs: map[string]int{"Store.keyMoved": 1, "shard.foldFlights": 1},
		Fix:   "a key's visible state moves in Store.keyMoved, which also snoops the read cache",
	},
	{
		// keyMoved's write step (ack false): the record was just appended.
		// A call whose step is not the literal true counts here.
		Name:  "the view's per-key write step",
		Site:  func(n ast.Node) bool { return keyMovedStep(n) == "write" },
		Funcs: map[string]int{"Store.append": 1},
		Fix:   "a record's write step is Store.append's; the view takes or defers it in Store.keyMoved",
	},
	{
		// keyMoved's ack step (ack true): the record's write is
		// acknowledged, which ackRange records in one place.
		Name:  "the view's per-key ack step",
		Site:  func(n ast.Node) bool { return keyMovedStep(n) == "ack" },
		Funcs: map[string]int{"Store.ackRange": 1},
		Fix:   "acknowledge writes through Store.ackRange",
	},
	{
		Name:  "the per-key cache snoop",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "invalidateKeyLocked") != nil },
		Funcs: map[string]int{"Store.keyMoved": 1},
		Fix:   "a key's visible state moves in Store.keyMoved, which also snoops the read cache",
	},
	{
		Name:  "the bucket- and shard-scoped cache snoops",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "invalidateMatchLocked") != nil },
		Funcs: map[string]int{"Store.flipBucket": 1, "Store.invalidateShardLocked": 1},
		Fix:   "bulk moves of visible state are Store.flipBucket (a bucket) and the callers of invalidateShardLocked (a shard)",
	},
	{
		Name:  "the demand-read cache lookup",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "lookupLocked") != nil },
		Funcs: map[string]int{"Store.readValue": 1},
		Fix:   "serve demand reads through Store.readValue",
	},
	{
		Name:  "the demand-read cache fill",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "fillLocked") != nil },
		Funcs: map[string]int{"Store.readValue": 1},
		Fix:   "serve demand reads through Store.readValue",
	},
	{
		// One demand read; the two churn reads fold (compaction) or copy
		// (migration) whole sets of records on the store's worker.
		// They are the only loads of the medium outside medium.go.
		Name:  "loads of an encoded slot's value",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "valLocOf") != nil },
		Funcs: map[string]int{"Store.readValue": 1, "Store.compactLocked": 1, "Store.migrateBucket": 1},
		Fix:   "serve demand reads through Store.readValue",
	},
	{
		// The medium's format — record layout, region addressing, the
		// record read (one LoadWords), the epoch record's MStores (one
		// StoreWords), the checksum-zeroing retire — is medium.go's; the
		// strategy's record writer (persist.go) stores a record, or stores
		// and flushes it a word at a time, through region.loc. A site is a
		// Load, an MStore, a record's LoadWords or StoreWords, or a word
		// address.
		Name: "Loads and MStores of a shard's medium",
		Site: func(n ast.Node) bool {
			return seam.Calls(n, "Load") != nil || seam.Calls(n, "MStore") != nil || seam.Calls(n, "loc") != nil ||
				seam.Calls(n, "LoadWords") != nil || seam.Calls(n, "StoreWords") != nil
		},
		Files: []string{"medium.go", "persist.go"},
		Funcs: map[string]int{"Store.readValue": 1, "Store.compactLocked": 1, "Store.migrateBucket": 1},
		Fix:   "read, retire and address records through region (medium.go)",
	},
	{
		// The watermark moves at a batch's commit point (ackFlight) and
		// catches up with the log tip when the log was committed whole,
		// cut back or restarted (shard.catchUp, which also closes the
		// batch).
		Name:  "assignments to a shard's acked watermark",
		Site:  func(n ast.Node) bool { return seam.Assigns(n, "acked") },
		Funcs: map[string]int{"Store.ackFlight": 1, "shard.catchUp": 1},
		Fix:   "move the watermark through shard.catchUp (shard.go)",
	},
	{
		// A shard's clocks move through shard.charge (a span, churn or
		// not), shard.stallTo (a pipeline stall) and shard.resetClocks —
		// the hooks a cost ledger or a bounded histogram hangs on.
		Name:  "assignments to a shard's busy and churn clocks",
		Site:  func(n ast.Node) bool { return seam.Assigns(n, "busyNS", "churnNS") },
		Files: []string{"shard.go"},
		Fix:   "charge the span through shard.charge (shard.go)",
	},
	{
		Name:  "assignments to a shard's flight queue and flush lane",
		Site:  func(n ast.Node) bool { return seam.Assigns(n, "flights", "laneEnd") },
		Files: []string{"pipeline.go"},
		Fix:   "go through the flight code (pipeline.go); a clock reset rebases them in shard.rebaseFlights",
	},
	{
		// A commit's flush cost must land on the shard's busy clock
		// exactly once: inside commitCharged's own span, or inside the
		// span its caller already has open (an append's; a migration's
		// copy and move-out phases, which are churn).
		Name:  "in-place commits",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "commitLocked") != nil },
		Funcs: map[string]int{"Store.commitCharged": 1, "Store.append": 1, "Store.migrateBucket": 2},
		Fix:   "commit through Store.commitCharged, which charges the flush to the shard",
	},
	{
		// Every shard's work runs on the store's one worker, homed on the
		// front end: Open starts it, and RecoverFront starts its
		// successor once a front crash killed it.
		Name:  "worker thread starts",
		Site:  func(n ast.Node) bool { return seam.Calls(n, "NewThread") != nil },
		Funcs: map[string]int{"Open": 1, "Store.RecoverFront": 1},
		Fix:   "run the work on Store.worker",
	},
	{
		// The shapes a hand-derived log-slot-vs-snapshot-slot encoding
		// takes: `slot >= sh.cap`, `sh.cap + i`. Comparing a log length to
		// the capacity is not one of them.
		Name: "slot arithmetic on a shard's capacity",
		Site: capSlotArith,
		Fix:  "decode slots with view.decode (shard.valLocOf, shard.mirrorVal)",
	},
}

// TestSeams holds every non-test file of the package to the seam table,
// and a Strategy constant to the strategy table (persist.go's rules) and
// the Strategy declarations (kv.go). Run with -v, it logs the package's
// size.
func TestSeams(t *testing.T) {
	p := seam.Load(t)
	p.Check(t, append(seams, seam.Row{
		Name:  "Strategy constants",
		Site:  p.Consts(t, "Strategy"),
		Files: []string{"kv.go"},
		Funcs: map[string]int{"rules": 0},
		Fix:   "read the decision from the strategy's row of rules (persist.go)",
	}))
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
	return seam.IsIdent(x, "cfg")
}

// keyMovedStep reports which step of Store.keyMoved n calls: "ack" when
// its ack argument is the literal true, "write" for any other call, ""
// when n is not a keyMoved call.
func keyMovedStep(n ast.Node) string {
	c := seam.Calls(n, "keyMoved")
	switch {
	case c == nil:
		return ""
	case len(c.Args) == 4 && seam.IsIdent(c.Args[3], "true"):
		return "ack"
	}
	return "write"
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
		return seam.Selects(b.X, "cap") || seam.Selects(b.Y, "cap")
	case token.GEQ, token.LSS:
		return seam.Selects(b.Y, "cap") && seam.Calls(b.X, "len") == nil
	}
	return false
}
