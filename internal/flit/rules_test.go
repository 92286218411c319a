package flit

import (
	"strings"
	"testing"

	"cxl0/internal/seam"
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

// TestSeams holds every strategy decision to the rules table: the
// package's sources switch over no Strategy and name a Strategy constant
// only in the declarations of rules and Strategies (see internal/seam). A
// strategy added without a row, or a branch on one, fails here.
func TestSeams(t *testing.T) {
	p := seam.Load(t)
	p.Check(t, []seam.Row{
		{Name: "switches over a Strategy", Site: p.Switches(t, "Strategy"),
			Fix: "read the decision from its row in rules"},
		{Name: "Strategy constants", Site: p.Consts(t, "Strategy"), Funcs: map[string]int{"rules": 0, "Strategies": 0},
			Fix: "read the decision from its row in rules"},
	})
}
