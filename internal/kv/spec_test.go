package kv

import (
	"errors"
	"fmt"
	"testing"

	"cxl0/internal/core"
)

// The spec of a shard's visible state: kv's visibility and durability
// rule, written once over records alone. A shard is a folded base (what
// compaction left), a log of records since, an acknowledged watermark and
// a gated flag. It knows no Store, so a test that drives one holds every
// outcome to it (property_test.go's specRun), and a checker of concurrent
// histories can later ask it the same questions.
//
// The rules:
//   - a write appends its record; a read sees the base under the log, or,
//     when gated (pipeline depth > 1 under a batched strategy), under only
//     the acknowledged prefix of the log;
//   - the watermark moves forward only, and never past the log;
//   - a Sync commits everything: the watermark reaches the log's end;
//   - a recovery to n records is valid only when acked ≤ n ≤ len(log):
//     the shard becomes the replay of that prefix, all of it durable;
//   - a compaction commits everything and folds it into the base;
//   - a heal, a degrade or an eviction churn is no event at all: nothing
//     visible moves.

// errOffSpec marks an outcome the spec does not allow.
var errOffSpec = errors.New("off spec")

// specRec is one log record of the spec; val 0 is a delete.
type specRec struct{ key, val core.Val }

// shardSpec is one shard as its clients may see it.
type shardSpec struct {
	base  map[core.Val]core.Val
	log   []specRec
	acked int
	gated bool
}

func newShardSpec(gated bool) *shardSpec {
	return &shardSpec{base: map[core.Val]core.Val{}, gated: gated}
}

// write appends a write's record.
func (s *shardSpec) write(key, val core.Val) {
	s.log = append(s.log, specRec{key, val})
}

// ack moves the watermark to n.
func (s *shardSpec) ack(n int) error {
	if n < s.acked || n > len(s.log) {
		return fmt.Errorf("%w: watermark moved %d -> %d over %d records", errOffSpec, s.acked, n, len(s.log))
	}
	s.acked = n
	return nil
}

// synced holds a Sync's commit point: the watermark covers the log.
func (s *shardSpec) synced() error {
	if s.acked != len(s.log) {
		return fmt.Errorf("%w: %d of %d records acknowledged after Sync", errOffSpec, s.acked, len(s.log))
	}
	return nil
}

// recover cuts the log at n records, which are durable from then on.
func (s *shardSpec) recover(n int) error {
	if n < s.acked || n > len(s.log) {
		return fmt.Errorf("%w: recovered %d records, %d acknowledged of %d appended", errOffSpec, n, s.acked, len(s.log))
	}
	s.log, s.acked = s.log[:n], n
	return nil
}

// compact folds the whole log into the base.
func (s *shardSpec) compact() {
	for _, r := range s.log {
		if r.val == 0 {
			delete(s.base, r.key)
		} else {
			s.base[r.key] = r.val
		}
	}
	s.log, s.acked = s.log[:0], 0
}

// get is what a read of key returns.
func (s *shardSpec) get(key core.Val) (core.Val, bool) {
	visible := s.log
	if s.gated {
		visible = s.log[:s.acked]
	}
	for i := len(visible) - 1; i >= 0; i-- {
		if r := visible[i]; r.key == key {
			return r.val, r.val != 0
		}
	}
	v, ok := s.base[key]
	return v, ok
}

// TestShardSpec maps short histories to the state they leave visible,
// and rejects the moves no shard may make.
func TestShardSpec(t *testing.T) {
	type step func(*shardSpec) error
	w := func(k, v core.Val) step { return func(s *shardSpec) error { s.write(k, v); return nil } }
	ack := func(n int) step { return func(s *shardSpec) error { return s.ack(n) } }
	synced := func(s *shardSpec) error { return s.synced() }
	cut := func(n int) step { return func(s *shardSpec) error { return s.recover(n) } }
	fold := func(s *shardSpec) error { s.compact(); return nil }
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
		{"a cut below the acked prefix", false, []step{w(1, 5), w(2, 6), ack(2), cut(1)}, nil},
		{"a cut past the log", false, []step{w(1, 5), cut(2)}, nil},
		{"a watermark that moves backwards", true, []step{w(1, 5), w(2, 6), ack(2), ack(1)}, nil},
		{"a watermark past the log", true, []step{w(1, 5), ack(2)}, nil},
		{"a Sync that leaves a record unacked", true, []step{w(1, 5), w(2, 6), ack(1), synced}, nil},
	} {
		s := newShardSpec(c.gated)
		var err error
		for _, st := range c.hist {
			if err = st(s); err != nil {
				break
			}
		}
		if c.want == nil {
			if !errors.Is(err, errOffSpec) {
				t.Errorf("%s: %v, want it refused", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for k := core.Val(0); k < 4; k++ {
			v, ok := s.get(k)
			if wv, wok := c.want[k]; ok != wok || v != wv {
				t.Errorf("%s: key %d reads (%d, %v), want (%d, %v)", c.name, k, v, ok, wv, wok)
			}
		}
	}
}
