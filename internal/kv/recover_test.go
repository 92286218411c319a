package kv

import (
	"errors"
	"math"
	"testing"

	"cxl0/internal/core"
)

// fuzzRecoverKeys is FuzzRecover's keyspace; fuzzRecoverCap its shard's
// capacity, small enough that a short program fills the log and, with
// compaction on, folds it.
const (
	fuzzRecoverKeys = 8
	fuzzRecoverCap  = 16
)

// FuzzRecover corrupts one word of a shard's medium and holds Recover to
// the durability contract. The input picks a strategy, pipeline depth 1
// or 2 and compaction on or off (setup), then runs a put/delete/sync/
// compact program (prog: one op per byte, the low two bits the op, the
// next three the key) on a one-shard store. It then MStores one word of
// one region (reg: log, snapshot half 0 or 1, epoch record; slot;
// word) through a thread of the store's own cluster — val, or the word's
// current value plus val when relative, masked non-negative — then
// crashes the shard and recovers it.
//
// Recover must not panic. A changed word inside the acknowledged log
// prefix, the committed snapshot or the committed epoch slot is a
// durability violation; anywhere else (the unacknowledged tail, unused
// slots, the inactive snapshot half or epoch slot) recovery succeeds, and
// the shard then reads as the spec's log (kvspec) cut at
// RecoveryStats.Recovered, which must keep every acknowledged record.
func FuzzRecover(f *testing.F) {
	puts := func(n int) []byte {
		var prog []byte
		for k := 0; k < n; k++ {
			prog = append(prog, byte(k<<2))
		}
		return prog
	}
	mstoreCompact := byte(12) // MStoreEach, depth 1, compaction on
	// TestRecoverDetectsSnapshotCorruption's two cases: after a
	// compaction of eight puts, zero a committed snapshot record's
	// checksum, then the committed epoch slot's.
	f.Add(mstoreCompact, append(puts(8), 3), uint8(2), uint8(2), uint8(2), false, int64(0))
	f.Add(mstoreCompact, append(puts(8), 3), uint8(3), uint8(1), uint8(2), false, int64(0))
	// TestRecoverDetectsDurabilityViolation: zero an acknowledged log
	// record's checksum.
	f.Add(uint8(0), puts(5), uint8(0), uint8(2), uint8(2), false, int64(0))
	// Three puts under group commit at depth 2 fill a batch still in
	// flight, unacknowledged, at the crash, and the changed word is an
	// unchanged one of the inactive snapshot half: recovery salvages the
	// flight, and the shard must read all three puts.
	f.Add(uint8(10), puts(3), uint8(1), uint8(0), uint8(0), true, int64(0))
	f.Fuzz(func(t *testing.T, setup uint8, prog []byte, reg, slot, word uint8, relative bool, val int64) {
		compaction := setup/12%2 == 1
		cfg := Config{
			Shards:        1,
			Capacity:      fuzzRecoverCap,
			Strategy:      Strategies[int(setup)%len(Strategies)],
			PipelineDepth: 1 + int(setup)/6%2,
			Batch:         3,
			EvictEvery:    2,
			Seed:          int64(setup),
		}
		if compaction {
			cfg.CompactAtFill = 0.75
		}
		st := openTest(t, cfg)
		if len(prog) > 48 {
			prog = prog[:48]
		}
		r := newSpecRun(st, fuzzRecoverKeys)
		next := core.Val(1)
		for _, b := range prog {
			key := core.Val((b >> 2) % fuzzRecoverKeys)
			var err error
			switch b & 3 {
			case 0:
				err = r.write(key, next)
				next++
			case 1:
				err = r.write(key, 0)
			case 2:
				err = r.sync()
			case 3:
				if compaction {
					err = r.compact(0)
				}
			}
			if err != nil && !errors.Is(err, ErrShardFull) {
				t.Fatalf("op %#x: %v", b, err)
			}
		}
		if err := r.watermarks(); err != nil {
			t.Fatal(err)
		}

		// Corrupt one word, and say whether recovery must notice.
		epoch, acked := st.SnapshotEpoch(0), st.AckedCount(0)
		sh := st.shards[0]
		var rg region
		slots := fuzzRecoverCap
		var committed bool
		switch reg % 4 {
		case 0:
			rg = sh.logR
			committed = int(slot)%slots < acked
		case 1, 2:
			half := uint64(reg%4 - 1)
			rg = sh.snaps[half]
			committed = epoch > 0 && half == epoch%2 && int(slot)%slots < st.SnapshotLen(0)
		case 3:
			rg, slots = sh.epochR, epochSlots
			committed = epoch > 0 && uint64(slot)%epochSlots == epoch%2
		}
		loc := rg.loc(int(slot)%slots, int(word)%recWords)
		th, err := st.Cluster().NewThread(0)
		if err != nil {
			t.Fatal(err)
		}
		old, err := th.Load(loc)
		if err != nil {
			t.Fatal(err)
		}
		v := core.Val(val)
		if relative {
			v += old
		}
		v &= math.MaxInt64 // memory holds non-negative values
		if err := th.MStore(loc, v); err != nil {
			t.Fatal(err)
		}
		st.Crash(0)
		rs, err := st.Recover(0)
		if committed && v != old {
			if !errors.Is(err, ErrDurabilityViolation) {
				t.Fatalf("recover after changing committed word %d (%d -> %d): %v, want ErrDurabilityViolation", loc, old, v, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("recover after changing uncommitted word %d (%d -> %d): %v", loc, old, v, err)
		}
		if err := r.recovered(rs); err != nil {
			t.Fatal(err)
		}
	})
}
