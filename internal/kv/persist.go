package kv

// The persistence seam. The paper's §6 transformation has one abstraction
// for "make this store durable" — MStore, store+flush, RStore+RFlush and
// a GPF are interchangeable instances of it — and this file is where the
// service keeps that choice: a Strategy is a row of the rules table below,
// read once, in Open, and every writer (log, snapshot, batch commit,
// migration, recovery re-persist) goes through writeWords and flushRange
// below instead of dispatching on the strategy itself. What stays with
// each caller is its crash policy: the log writer retries under an epoch
// guard, the snapshot writer aborts (see docs/persistence.md).
//
// A rule writes a record with one memsim.Thread.StoreWords: one lock for
// the record, its stores taken a word step at a time, and the same
// simulated state, clock and eviction draws as a store per word. A
// flush-each rule is the exception: each word's flush must precede the
// next word's store, so it stores and flushes a word at a time.

import (
	"errors"
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/memsim"
)

// flush is what a rule does for the words it stored to be durable, and
// who pays for it.
type flush int

const (
	// flushNone: the store is persistent on return; nothing is left to
	// flush.
	flushNone flush = iota
	// flushEach: an RFlush after each word's store, before the next
	// word's; every word is persistent as it is written, nothing is left
	// to flush after the record.
	flushEach
	// flushShard: one RFlushRange over exactly the written lines. Only
	// the shard's own device takes part, so the cost lands on the shard
	// alone and flushes of disjoint ranges overlap.
	flushShard
	// flushFabric: one Global Persistent Flush. It drains every cache in
	// the system, so every other shard is charged the stall, two of them
	// cannot overlap, and one partitioned machine blocks it.
	flushFabric
)

// rule is one strategy's row: its name and its write rule.
type rule struct {
	name string
	// store is the primitive the rule writes words with: MStore,
	// persistent on return, or LStore/RStore, which the flush makes
	// durable.
	store core.Op
	flush flush
	// batched says the log writer only stages records and a commit point
	// flushes them per batch; otherwise every record is flushed — and
	// acknowledged — before its write returns.
	batched bool
}

// rules is the strategy table, indexed by Strategy: the one place a
// strategy's name and write rule are stated.
var rules = [...]rule{
	MStoreEach:   {"mstore", core.OpMStore, flushNone, false},
	StoreFlush:   {"flush", core.OpLStore, flushEach, false},
	RStoreFlush:  {"rstore", core.OpRStore, flushEach, false},
	GPFEach:      {"gpf", core.OpLStore, flushFabric, false},
	GroupCommit:  {"group", core.OpLStore, flushFabric, true},
	RangedCommit: {"ranged", core.OpLStore, flushShard, true},
}

// writeWords writes the words of record slot of region r with the
// store's rule: the record in one StoreWords, or a flush-each rule's a
// word and its RFlush at a time. A slot outside r is refused.
func (s *Store) writeWords(r region, slot int, words [recWords]core.Val) error {
	if err := r.holds(slot, 1); err != nil {
		return err
	}
	t := s.worker
	if s.persist.flush != flushEach {
		return t.StoreWords(s.persist.store, r.loc(slot, 0), words[:])
	}
	for w := range words {
		l := r.loc(slot, w)
		if err := t.StoreWords(s.persist.store, l, words[w:w+1]); err != nil {
			return err
		}
		if err := t.RFlush(l); err != nil {
			return err
		}
	}
	return nil
}

// flushRange makes the records written at slots [first, first+n) of
// region r on shard sh durable per the rule's flush. sh itself pays
// through its caller's elapsed-span accounting, which contains this
// call; a fabric-wide flush also charges its cost to every other shard,
// because the whole fabric stalls for its duration regardless of which
// shard triggered it. When the flush serves churn work (s.churning:
// recovery, migration, compaction) rather than client traffic, that
// cross-charge is classified as churn on the stalled shards too, keeping
// the placement-skew metric clean of it.
//
//cxl0:locked mu
func (s *Store) flushRange(sh *shard, r region, first, n int) error {
	if err := r.holds(first, n); err != nil {
		return err
	}
	switch s.persist.flush {
	case flushNone, flushEach:
	case flushShard:
		if n > 0 {
			return s.worker.RFlushRange(r.loc(first, 0), n*recWords)
		}
	case flushFabric:
		start := s.cluster.NowNS()
		if err := s.worker.GPF(); err != nil {
			if errors.Is(err, memsim.ErrUnreachable) {
				// One partitioned machine anywhere blocks commits
				// cluster-wide — the blast radius the ranged strategy
				// avoids.
				return fmt.Errorf("%w: global persistent flush blocked: %v", ErrUnavailable, err)
			}
			return err
		}
		cost := s.cluster.NowNS() - start
		for _, other := range s.shards {
			if other != sh {
				other.charge(cost, s.churning)
			}
		}
	}
	return nil
}
