// Package kvspec is the spec of the KV service as a client may see it:
// kv's visibility, durability and partial-result rules, written once over
// records alone. It knows no Store or Router, so a test that drives one
// holds every outcome to it (kv's specRun and viewModel, kvtest's checked
// DB, the pooled fuzz target), and a checker of concurrent histories can
// later ask it the same questions. It imports only internal/core, so
// kv's own tests can import it (TestImports).
//
// A Shard is a folded base (what compaction left), a log of records
// since, an acknowledged watermark and a gated flag:
//   - a write appends its record; a read sees the base under the log, or,
//     when gated (pipeline depth > 1 under a batched strategy), under only
//     the acknowledged prefix of the log;
//   - the watermark moves forward only, and never past the log;
//   - a Sync commits everything: the watermark reaches the log's end;
//   - a recovery to n records is valid only when acked ≤ n ≤ len(log):
//     the shard becomes the replay of that prefix, all of it durable;
//   - a compaction commits everything and folds it into the base;
//   - a bucket move appends a marker that drops the bucket's keys;
//   - a heal, a degrade or an eviction churn is no event at all: nothing
//     visible moves.
//
// A DB is the shards of a service, in kv.DB's global order (cluster-major
// under a pool), a set of them partitioned, and the caller's routing of a
// key to its shard:
//   - Get and MultiGet read a key on its shard; a key on a partitioned
//     shard is withheld, a not-found placeholder;
//   - MultiGet keeps input order, and each key's value comes from its
//     shard at a watermark between the call's start and its end;
//   - Scan is one cut of every shard in key order under limit; every key
//     in range on a partitioned shard is withheld, past limit too;
//   - a read that withholds keys reports how many (Missing) and on which
//     shards, ascending (Unavailable), as *kv.PartialResultError does;
//   - Apply runs as per-store legs in store order, each leg's ops in
//     input order, and stops at the first op routed to a partitioned
//     shard; the ops before it stay written.
package kvspec

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"cxl0/internal/core"
)

// ErrOffSpec marks an outcome the spec does not allow.
var ErrOffSpec = errors.New("off spec")

// Rec is one log record: a write of Val to Key (Val 0 deletes it), or,
// when Gone is set, a bucket move's marker, which drops every key Gone
// reports from what the records before it left.
type Rec struct {
	Key, Val core.Val
	Gone     func(core.Val) bool
}

// apply replays r onto state.
func (r Rec) apply(state map[core.Val]core.Val) {
	switch {
	case r.Gone != nil:
		maps.DeleteFunc(state, func(k, _ core.Val) bool { return r.Gone(k) })
	case r.Val == 0:
		delete(state, r.Key)
	default:
		state[r.Key] = r.Val
	}
}

// Shard is one shard as its clients may see it. Callers read its fields
// and move it only through its methods.
type Shard struct {
	Base  map[core.Val]core.Val
	Log   []Rec
	Acked int
	Gated bool
}

// NewShard returns an empty shard.
func NewShard(gated bool) *Shard {
	return &Shard{Base: map[core.Val]core.Val{}, Gated: gated}
}

// Write appends a write's record.
func (s *Shard) Write(key, val core.Val) {
	s.Log = append(s.Log, Rec{Key: key, Val: val})
}

// Move appends a bucket move's marker: the keys gone reports leave the
// shard.
func (s *Shard) Move(gone func(core.Val) bool) {
	s.Log = append(s.Log, Rec{Gone: gone})
}

// Ack moves the watermark to n.
func (s *Shard) Ack(n int) error {
	if n < s.Acked || n > len(s.Log) {
		return fmt.Errorf("%w: watermark moved %d -> %d over %d records", ErrOffSpec, s.Acked, n, len(s.Log))
	}
	s.Acked = n
	return nil
}

// Synced holds a Sync's commit point: the watermark covers the log.
func (s *Shard) Synced() error {
	if s.Acked != len(s.Log) {
		return fmt.Errorf("%w: %d of %d records acknowledged after Sync", ErrOffSpec, s.Acked, len(s.Log))
	}
	return nil
}

// Recover cuts the log at n records, which are durable from then on.
func (s *Shard) Recover(n int) error {
	if n < s.Acked || n > len(s.Log) {
		return fmt.Errorf("%w: recovered %d records, %d acknowledged of %d appended", ErrOffSpec, n, s.Acked, len(s.Log))
	}
	s.Log, s.Acked = s.Log[:n], n
	return nil
}

// Compact folds the whole log into the base.
func (s *Shard) Compact() {
	for _, r := range s.Log {
		r.apply(s.Base)
	}
	s.Log, s.Acked = s.Log[:0], 0
}

// visible is how many log records reads see.
func (s *Shard) visible() int {
	if s.Gated {
		return s.Acked
	}
	return len(s.Log)
}

// Served returns the log slot of the record a read of key is served
// from, -1 for the base; ok is false when the key reads not found.
func (s *Shard) Served(key core.Val) (slot int, ok bool) {
	return s.servedAt(key, s.visible())
}

// servedAt is Served over the first upto log records.
func (s *Shard) servedAt(key core.Val, upto int) (int, bool) {
	for i := upto - 1; i >= 0; i-- {
		switch r := s.Log[i]; {
		case r.Gone != nil && r.Gone(key):
			return i, false
		case r.Gone == nil && r.Key == key:
			return i, r.Val != 0
		}
	}
	_, ok := s.Base[key]
	return -1, ok
}

// getAt is what a read of key returns over the first upto log records.
func (s *Shard) getAt(key core.Val, upto int) (core.Val, bool) {
	slot, ok := s.servedAt(key, upto)
	if slot < 0 {
		return s.Base[key], ok
	}
	return s.Log[slot].Val, ok
}

// Get is what a read of key returns.
func (s *Shard) Get(key core.Val) (core.Val, bool) {
	return s.getAt(key, s.visible())
}

// Lookup is one MultiGet result, Pair one Scan result: kv's, field for
// field, so a kv.Lookup or kv.Pair converts to them.
type (
	Lookup struct {
		Key, Val core.Val
		Found    bool
	}
	Pair struct{ Key, Val core.Val }
)

// Partial is what a read withholds behind partitions: how many keys, and
// the shards they are on, ascending — a *kv.PartialResultError's
// Missing and Unavailable. The zero Partial withholds nothing.
type Partial struct {
	Unavailable []int
	Missing     int
}

// withhold counts one key of shard i as withheld.
func (p *Partial) withhold(i int) {
	p.Missing++
	if j, found := slices.BinarySearch(p.Unavailable, i); !found {
		p.Unavailable = slices.Insert(p.Unavailable, j, i)
	}
}

// DB is a service of shards, perStore to a store, as its clients may see
// it. Part is the set of partitioned shards; callers set and clear it.
type DB struct {
	Shards   []*Shard
	Part     []bool
	perStore int
	route    func(core.Val) int
}

// New returns an empty service of stores × perStore shards. route maps a
// key to its global shard, or to -1 for a key the caller has not placed,
// which then has never been written.
func New(stores, perStore int, gated bool, route func(core.Val) int) *DB {
	d := &DB{Part: make([]bool, stores*perStore), perStore: perStore, route: route}
	for range stores * perStore {
		d.Shards = append(d.Shards, NewShard(gated))
	}
	return d
}

// Ack moves every shard's watermark to its mark.
func (d *DB) Ack(marks []int) error {
	for i, s := range d.Shards {
		if err := s.Ack(marks[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Get is what a read of key returns, and what it withholds.
func (d *DB) Get(key core.Val) (Lookup, Partial) {
	var p Partial
	return d.get(key, &p), p
}

// get reads key, withholding it in p when its shard is partitioned.
func (d *DB) get(key core.Val, p *Partial) Lookup {
	switch i := d.route(key); {
	case i < 0:
	case d.Part[i]:
		p.withhold(i)
	default:
		v, ok := d.Shards[i].Get(key)
		return Lookup{key, v, ok}
	}
	return Lookup{Key: key}
}

// MultiGet holds got, a MultiGet of keys, to the spec: one result per key
// in input order, a placeholder for a key on a partitioned shard, and any
// other key's value as its shard serves it at a watermark between the
// spec's (the call's start) and marks (its end), which the spec then
// takes. It returns what the call withholds.
func (d *DB) MultiGet(keys []core.Val, got []Lookup, marks []int) (Partial, error) {
	var p Partial
	from := make([]int, len(d.Shards))
	for i, s := range d.Shards {
		from[i] = s.Acked
	}
	if err := d.Ack(marks); err != nil {
		return p, err
	}
	if len(got) != len(keys) {
		return p, fmt.Errorf("%w: MultiGet of %d keys returned %d results", ErrOffSpec, len(keys), len(got))
	}
	for j, k := range keys {
		want := d.get(k, &p)
		ok := got[j] == want
		if i := d.route(k); !ok && i >= 0 && !d.Part[i] && d.Shards[i].Gated {
			for upto := from[i]; upto < d.Shards[i].Acked && !ok; upto++ {
				v, found := d.Shards[i].getAt(k, upto)
				ok = got[j] == Lookup{k, v, found}
			}
		}
		if !ok {
			return p, fmt.Errorf("%w: MultiGet(%v)[%d] = %+v, want %+v or a value from watermark %v on", ErrOffSpec, keys, j, got[j], want, from)
		}
	}
	return p, nil
}

// Scan is what Scan(lo, hi, limit) returns, and what it withholds.
func (d *DB) Scan(lo, hi core.Val, limit int) ([]Pair, Partial) {
	type held struct {
		Pair
		shard int
	}
	var in []held
	for i, s := range d.Shards {
		state := maps.Clone(s.Base)
		for _, r := range s.Log[:s.visible()] {
			r.apply(state)
		}
		for k, v := range state {
			if lo <= k && k < hi {
				in = append(in, held{Pair{k, v}, i})
			}
		}
	}
	slices.SortFunc(in, func(a, b held) int { return cmp.Compare(a.Key, b.Key) })
	var pairs []Pair
	var p Partial
	for _, h := range in {
		switch {
		case d.Part[h.shard]:
			p.withhold(h.shard)
		case limit <= 0 || len(pairs) < limit:
			pairs = append(pairs, h.Pair)
		}
	}
	return pairs, p
}

// Apply writes the batch ops, every one of them routed, and reports
// whether it wrote them all.
func (d *DB) Apply(ops []Rec) bool {
	for store := 0; store*d.perStore < len(d.Shards); store++ {
		for _, op := range ops {
			if i := d.route(op.Key); i/d.perStore == store {
				if d.Part[i] {
					return false
				}
				d.Shards[i].Write(op.Key, op.Val)
			}
		}
	}
	return true
}
