package kv

import (
	"slices"

	"cxl0/internal/core"
	"cxl0/internal/obs"
)

// run is one shard's ordered run in a range read's merge, with the store
// that owns the shard.
type run struct {
	sh *shard
	st *Store
}

// pick is one key the merge took: its position in the result and the
// shard and encoded slot its visible state is read from.
type pick struct {
	pos  int
	sh   *shard
	slot int
}

// Scan returns up to limit live pairs with lo <= key < hi, in key order,
// loading each value from its shard: ScanStores over this one store.
func (s *Store) Scan(lo, hi core.Val, limit int) ([]Pair, error) {
	out, _, err := ScanStores([]*Store{s}, lo, hi, limit, nil)
	return out, err
}

// ScanStores is the range read over stores that partition the keyspace
// (fanout.go). It returns up to limit live pairs with lo <= key < hi (all
// of them when limit <= 0), in key order, and loads only the values it
// returns.
//
// Every shard of every store is an ordered run (a view cursor); the
// seeks list the runs with a key in range, and one merge over that list
// picks the first limit keys, dropping a run when it ends — walking at
// most limit + runs keys whatever the shards hold — and each store in
// turn then reads the values of its picks in key order, each into its
// place in the result. A store runs a leg iff the merge took a key from
// it, or it is the only store read. A leg is one tick of its Scans
// counter, its reads (its pairs in ScannedPairs and its scan-run
// prefetch) and its op span.
//
// A partitioned shard is skipped: the pairs come back with a
// *PartialResultError whose Missing counts every key in [lo, hi) the
// shards it names withhold. Any other error (a front end down, a down
// shard with a key in range, a failed read) fails the read. fan, when
// set, is the recorder of the fan-out the read serves (fanOut.publish).
func ScanStores(stores []*Store, lo, hi core.Val, limit int, fan *obs.Recorder) ([]Pair, int, error) {
	lockStores(stores)
	defer unlockStores(stores)
	f := openFanOut(stores, fan)
	pairs, failed, err := scanLocked(stores, lo, hi, limit)
	f.publish(stores, obs.OpScan, len(pairs))
	return pairs, failed, err
}

// scanLocked is ScanStores with every store's lock held.
func scanLocked(stores []*Store, lo, hi core.Val, limit int) ([]Pair, int, error) {
	// Sized once for like stores.
	runs := slices.Grow(stores[0].leg.runs[:0], len(stores)*len(stores[0].shards))
	var unavailable []int
	missing, base, atMost := 0, 0, 0
	for i, st := range stores {
		if st.frontDown {
			return nil, i, ErrFrontDown
		}
		st.leg.picks = st.leg.picks[:0]
		for _, sh := range st.shards {
			if !sh.partitioned {
				st.retireReady(sh)
			}
			c := &sh.scan
			n := sh.view.seek(c, lo, hi)
			switch {
			case !c.ok:
				// A down or partitioned shard with no key in range
				// costs the read nothing.
			case sh.down:
				// Before any value is read.
				return nil, i, ErrShardDown
			case sh.partitioned:
				// The read degrades to a partial result instead: the
				// shard's data is intact behind the partition, so
				// skipping it is safe and the typed error says what is
				// missing — exactly, so its run is walked to the end.
				unavailable = append(unavailable, base+sh.id)
				for ; c.ok; c.advance() {
					missing++
				}
			default:
				atMost += n
				runs = append(runs, run{sh: sh, st: st})
			}
		}
		base += len(st.shards)
	}
	stores[0].leg.runs = runs
	if limit > 0 {
		atMost = min(atMost, limit)
	}
	out := make([]Pair, 0, atMost)
	// The merge: take the smallest head among the live runs (the first
	// in store and shard order on a tie), and drop a run once its cursor
	// ends.
	for len(runs) > 0 && (limit <= 0 || len(out) < limit) {
		j := 0
		for k := 1; k < len(runs); k++ {
			if runs[k].sh.scan.key < runs[j].sh.scan.key {
				j = k
			}
		}
		c, owner := &runs[j].sh.scan, runs[j].st
		owner.leg.picks = append(owner.leg.picks, pick{pos: len(out), sh: runs[j].sh, slot: c.resolve()})
		out = append(out, Pair{Key: c.key})
		if c.advance(); !c.ok {
			runs = slices.Delete(runs, j, j+1)
		}
	}
	for i, st := range stores {
		if len(st.leg.picks) == 0 && len(stores) > 1 {
			continue
		}
		if err := st.readLegLocked(out); err != nil {
			return nil, i, err
		}
	}
	if missing > 0 {
		return out, -1, &PartialResultError{Op: "scan", Unavailable: unavailable, Missing: missing}
	}
	return out, -1, nil
}

// readLegLocked runs the store's leg of a range read: it counts the
// Scan as served (every denial came before the first leg), reads the
// values of its picks, in key order, each into its place in out, then
// accounts the leg — its pairs, its scan-run prefetch and its span.
func (s *Store) readLegLocked(out []Pair) error {
	s.ctr.Scans++
	s.leg.startNS = s.cluster.NowNS()
	for _, p := range s.leg.picks {
		v, err := s.readValue(p.sh, out[p.pos].Key, p.slot)
		if err != nil {
			return err
		}
		out[p.pos].Val = v
	}
	if n := len(s.leg.picks); s.pred != nil && n > 0 {
		// Scan-run prefetch: warm the keys just past the scanned range
		// ahead of a continuing sweep (workload E's scans walk forward).
		s.prefetchLocked(s.pred.aheadLocked(out[s.leg.picks[n-1].pos].Key))
	}
	s.ctr.ScannedPairs += uint64(len(s.leg.picks))
	s.endLeg(len(s.leg.picks))
	s.rec.OpSpan(obs.OpScan, -1, s.leg.startNS, s.leg.endNS, s.leg.n, 0, false)
	return nil
}
