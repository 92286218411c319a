package kv

// The persistence seam. The paper's §6 transformation has one abstraction
// for "make this store durable" — MStore, store+flush, RStore+RFlush and
// a GPF are interchangeable instances of it — and this file is where the
// service keeps that choice: a Strategy resolves, once, in Open, to a
// persister, and every writer (log, snapshot, batch commit, migration,
// recovery re-persist) goes through writeWords and flushRange below
// instead of dispatching on the strategy itself. What stays with each
// caller is its crash policy: the log writer retries under an epoch
// guard, the snapshot writer aborts (see docs/persistence.md).
//
// The plain rules (MStoreEach, GPFEach, GroupCommit, RangedCommit) write a
// record at a time, with one memsim.Thread.StoreWords: one lock for the
// record, its stores taken a word step at a time, and the same simulated
// state, clock and eviction draws as a store per word. The store+flush
// rules (StoreFlush, RStoreFlush) write a word and flush it before the
// next word's store, so they keep a loop of per-word pairs: there is no
// run of plain stores to take at once.

import (
	"errors"
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/memsim"
)

// flushScope is what has to happen after a range of words was written
// for them to be durable, and who pays for it.
type flushScope int

const (
	// perWord: every word was persisted as it was written; nothing is
	// left to flush.
	perWord flushScope = iota
	// shardLocal: one RFlushRange over exactly the written lines. Only
	// the shard's own device takes part, so the cost lands on the shard
	// alone and flushes of disjoint ranges overlap.
	shardLocal
	// fabricWide: one Global Persistent Flush. It drains every cache in
	// the system, so every other shard is charged the stall, two of them
	// cannot overlap, and one partitioned machine blocks it.
	fabricWide
)

// persister is one strategy's answer to "make these words durable".
type persister struct {
	// store is the primitive a plain rule writes a record with, a record
	// at a time (memsim.Thread.StoreWords): MStore, persistent on return,
	// or LStore, which the scope's flush makes durable.
	store core.Op
	// storeFlush, set for the rules that pair each store with a flush,
	// writes one word of a record at l on behalf of the shard on machine
	// owner and flushes it, a word at a time: its word is persistent on
	// return.
	storeFlush func(t *memsim.Thread, owner core.MachineID, l core.LocID, v core.Val) error
	// scope is the flush the written words still need.
	scope flushScope
	// batched says the log writer only stages records and a commit
	// point flushes them per batch; otherwise every record is flushed —
	// and acknowledged — before its write returns.
	batched bool
}

// persisterFor is the strategy table.
func persisterFor(st Strategy) (persister, error) {
	switch st {
	case MStoreEach:
		return persister{store: core.OpMStore, scope: perWord}, nil
	case StoreFlush:
		return persister{storeFlush: lstoreFlushWord, scope: perWord}, nil
	case RStoreFlush:
		return persister{storeFlush: rstoreFlushWord, scope: perWord}, nil
	case GPFEach:
		return persister{store: core.OpLStore, scope: fabricWide}, nil
	case GroupCommit:
		return persister{store: core.OpLStore, scope: fabricWide, batched: true}, nil
	case RangedCommit:
		return persister{store: core.OpLStore, scope: shardLocal, batched: true}, nil
	}
	return persister{}, fmt.Errorf("%w: %v", ErrUnknownStrategy, st)
}

// lstoreFlushWord is the LStore+flush idiom: the owner's LFlush when the
// worker is colocated with the shard, RFlush otherwise.
func lstoreFlushWord(t *memsim.Thread, owner core.MachineID, l core.LocID, v core.Val) error {
	if err := t.LStore(l, v); err != nil {
		return err
	}
	if t.Machine() == owner {
		return t.LFlush(l)
	}
	return t.RFlush(l)
}

func rstoreFlushWord(t *memsim.Thread, _ core.MachineID, l core.LocID, v core.Val) error {
	if err := t.RStore(l, v); err != nil {
		return err
	}
	return t.RFlush(l)
}

// writeWords writes the words of record slot of region r on shard sh
// with the store's strategy: a plain rule's record in one StoreWords, a
// store+flush rule's a word and its flush at a time. The array travels by
// value so it stays on the caller's stack across the indirect call.
func (s *Store) writeWords(t *memsim.Thread, sh *shard, r region, slot int, words [recWords]core.Val) error {
	if s.persist.storeFlush == nil {
		return t.StoreWords(s.persist.store, r.loc(slot, 0), words[:])
	}
	for w, v := range words {
		if err := s.persist.storeFlush(t, sh.machine, r.loc(slot, w), v); err != nil {
			return err
		}
	}
	return nil
}

// flushRange makes the records written at slots [first, first+n) of
// region r on shard sh durable per the strategy's scope. sh itself pays
// through its caller's elapsed-span accounting, which contains this
// call; a fabric-wide flush also charges its cost to every other shard,
// because the whole fabric stalls for its duration regardless of which
// shard triggered it. When the flush serves churn work (recovery,
// migration, compaction) rather than client traffic, that cross-charge
// is classified as churn on the stalled shards too, keeping the
// placement-skew metric clean of it.
//
//cxl0:locked mu
func (s *Store) flushRange(t *memsim.Thread, sh *shard, r region, first, n int, churn bool) error {
	switch s.persist.scope {
	case perWord:
	case shardLocal:
		if n > 0 {
			return t.RFlushRange(r.loc(first, 0), n*recWords)
		}
	case fabricWide:
		start := s.cluster.NowNS()
		if err := t.GPF(); err != nil {
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
				other.charge(cost, churn)
			}
		}
	}
	return nil
}
