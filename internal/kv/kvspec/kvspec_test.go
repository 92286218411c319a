package kvspec

import (
	"errors"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"cxl0/internal/core"
)

// TestShardSpec maps short histories to the state they leave visible,
// and rejects the moves no shard may make.
func TestShardSpec(t *testing.T) {
	type step func(*Shard) error
	w := func(k, v core.Val) step { return func(s *Shard) error { s.Write(k, v); return nil } }
	ack := func(n int) step { return func(s *Shard) error { return s.Ack(n) } }
	synced := func(s *Shard) error { return s.Synced() }
	cut := func(n int) step { return func(s *Shard) error { return s.Recover(n) } }
	fold := func(s *Shard) error { s.Compact(); return nil }
	move := func(s *Shard) error { s.Move(func(k core.Val) bool { return k%2 == 1 }); return nil }
	for _, c := range []struct {
		name  string
		gated bool
		hist  []step
		want  map[core.Val]core.Val // nil when the last step is refused
	}{
		{"writes are visible at once", false, []step{w(1, 5), w(2, 6), w(1, 0)}, map[core.Val]core.Val{2: 6}},
		{"gated reads see the acked prefix", true, []step{w(1, 5), w(2, 6), w(1, 7), ack(1)}, map[core.Val]core.Val{1: 5}},
		{"a Sync shows everything", true, []step{w(1, 5), w(1, 0), w(2, 6), ack(3), synced}, map[core.Val]core.Val{2: 6}},
		{"a recovery keeps the prefix it salvaged", true, []step{w(1, 5), w(2, 6), w(1, 7), ack(1), cut(2)}, map[core.Val]core.Val{1: 5, 2: 6}},
		{"a recovery may keep nothing unacked", false, []step{w(1, 5), ack(1), w(1, 6), w(2, 6), cut(1)}, map[core.Val]core.Val{1: 5}},
		{"a compaction folds deletes and overwrites", true, []step{w(1, 5), w(2, 6), w(1, 0), w(2, 8), fold, w(3, 9)}, map[core.Val]core.Val{2: 8}},
		{"a recovery after a compaction keeps the base", false, []step{w(1, 5), fold, w(1, 6), w(2, 1), cut(0)}, map[core.Val]core.Val{1: 5}},
		{"a bucket move drops its keys, base and log, not later writes", false, []step{w(1, 5), fold, w(2, 6), w(3, 7), move, w(3, 8)}, map[core.Val]core.Val{2: 6, 3: 8}},
		{"a cut below the acked prefix", false, []step{w(1, 5), w(2, 6), ack(2), cut(1)}, nil},
		{"a cut past the log", false, []step{w(1, 5), cut(2)}, nil},
		{"a watermark that moves backwards", true, []step{w(1, 5), w(2, 6), ack(2), ack(1)}, nil},
		{"a watermark past the log", true, []step{w(1, 5), ack(2)}, nil},
		{"a Sync that leaves a record unacked", true, []step{w(1, 5), w(2, 6), ack(1), synced}, nil},
	} {
		s := NewShard(c.gated)
		var err error
		for _, st := range c.hist {
			if err = st(s); err != nil {
				break
			}
		}
		if c.want == nil {
			if !errors.Is(err, ErrOffSpec) {
				t.Errorf("%s: %v, want it refused", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for k := core.Val(0); k < 4; k++ {
			v, ok := s.Get(k)
			if wv, wok := c.want[k]; ok != wok || v != wv {
				t.Errorf("%s: key %d reads (%d, %v), want (%d, %v)", c.name, k, v, ok, wv, wok)
			}
		}
	}
}

// TestDBSpec pins the service's read and batch rules on two stores of two
// shards, key k on shard k % 4, keys 1..8 written and acked, shard 1
// partitioned: what each read returns and withholds, where an Apply
// stops, and a MultiGet value from outside its watermark window refused.
func TestDBSpec(t *testing.T) {
	d := New(2, 2, true, func(k core.Val) int { return int(k % 4) })
	for k := core.Val(1); k <= 8; k++ {
		d.Shards[k%4].Write(k, 10*k)
	}
	d.Shards[2].Write(2, 21) // slot 2
	d.Shards[2].Write(2, 22) // slot 3
	if err := d.Ack([]int{2, 2, 3, 2}); err != nil {
		t.Fatal(err)
	}
	d.Part[1] = true
	marks := []int{2, 2, 4, 2}
	keys := []core.Val{5, 2, 9, 1}
	if p, err := d.MultiGet(keys, []Lookup{{Key: 5}, {2, 21, true}, {Key: 9}, {Key: 1}}, marks); err != nil || p.Missing != 3 || !slices.Equal(p.Unavailable, []int{1}) {
		t.Errorf("MultiGet(%v) withholds %+v, %v; want 3 keys of shard 1 and key 2 from inside its window", keys, p, err)
	}
	if _, err := d.MultiGet(keys[1:2], []Lookup{{2, 20, true}}, marks); !errors.Is(err, ErrOffSpec) {
		t.Errorf("a MultiGet value from before its window: %v, want it refused", err)
	}
	if pairs, p := d.Scan(2, 9, 2); !slices.Equal(pairs, []Pair{{2, 22}, {3, 30}}) || p.Missing != 1 || !slices.Equal(p.Unavailable, []int{1}) {
		t.Errorf("Scan(2, 9, 2) = %v, %+v; want [{2 22} {3 30}] and key 5, past limit, withheld", pairs, p)
	}
	// Store 0 (shards 0, 1) runs its leg first: 4 is written and 9 stops
	// the batch, so store 1's leg (3 and 6) never runs.
	if d.Apply([]Rec{{Key: 3, Val: 1}, {Key: 4, Val: 2}, {Key: 9, Val: 3}, {Key: 6, Val: 4}}) {
		t.Error("Apply over partitioned shard 1 wrote the whole batch")
	}
	if logs := []int{len(d.Shards[0].Log), len(d.Shards[2].Log), len(d.Shards[3].Log)}; !slices.Equal(logs, []int{3, 4, 2}) {
		t.Errorf("after the Apply, shards 0, 2 and 3 hold %v records, want [3 4 2]", logs)
	}
}

// TestImports holds the package to core alone, so that kv's own tests can
// import it, and keeps it out of every program: no non-test package
// imports it but kvtest.
func TestImports(t *testing.T) {
	const self = "cxl0/internal/kv/kvspec"
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "cxl0/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		for _, imp := range strings.Fields(imports) {
			switch {
			case pkg == self && strings.HasPrefix(imp, "cxl0/") && imp != "cxl0/internal/core":
				t.Errorf("kvspec imports %s: it may import only cxl0/internal/core", imp)
			case imp == self && pkg != "cxl0/internal/kv/kvtest":
				t.Errorf("%s imports kvspec: only tests and internal/kv/kvtest may", pkg)
			}
		}
	}
}
