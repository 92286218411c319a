package kv

import (
	"cmp"
	"slices"

	"cxl0/internal/core"
	"cxl0/internal/obs"
)

// scanLeg is one store's part of a range read: the keys the merge took
// from it, in key order, and the span of its reads on its clock.
type scanLeg struct {
	picks          []pick
	startNS, endNS float64
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
	out, _, err := ScanStores([]*Store{s}, lo, hi, limit, 0)
	return out, err
}

// ScanStores is the range read over stores that partition the keyspace
// between them: Store.Scan is the one-store case and a pool.Router's Scan
// the pooled one. It returns up to limit live pairs with lo <= key < hi
// (all of them when limit <= 0), in key order, and loads only the values
// it returns.
//
// It takes every store's lock in index order and holds them all to the
// end, so the pairs are one cut of the stores. Every shard of every store
// is an ordered run (a view cursor); one merge over all the runs picks
// the first limit keys, walking at most limit + runs keys whatever the
// shards hold, and each store in turn then reads the values of its picks
// in key order, each into its place in the result. A store's reads are
// its leg: one tick of its Scans counter, its pairs in ScannedPairs, its
// op span and its scan-run prefetch. A store the merge took no key from
// runs no leg, unless it is read alone. An unlimited read takes every key
// whatever the other stores hold, so it visits the stores one at a time
// instead — each store's ready flights retire just before its own reads,
// as in a Store.Scan of it — and sorts the stores' ascending runs into
// one at the end.
//
// parent, when not 0, is the span of a fan-out the read serves: once
// every store has read, each leg is published as one of its legs, in
// store order, with its span on its store's clock.
//
// A partitioned shard is skipped: the pairs come back with a
// *PartialResultError whose Unavailable numbers the stores' shards one
// after another and whose Missing counts every key in [lo, hi) the shards
// it names withhold. Any other error (a front end down, a down shard with
// a key in range, a failed read) fails the read, with the index of the
// store it came from; the index is -1 otherwise.
func ScanStores(stores []*Store, lo, hi core.Val, limit int, parent uint64) ([]Pair, int, error) {
	for _, st := range stores {
		st.mu.Lock()
	}
	defer func() {
		for _, st := range stores {
			st.mu.Unlock()
		}
	}()
	return scanLocked(stores, lo, hi, limit, parent)
}

// scanLocked is ScanStores with every store's lock held.
func scanLocked(stores []*Store, lo, hi core.Val, limit int, parent uint64) ([]Pair, int, error) {
	// A round is the stores one merge runs over: all of them, or one at
	// a time on an unlimited read.
	group := len(stores)
	if limit <= 0 {
		group = 1
	}
	out := []Pair{}
	var unavailable []int
	missing, base := 0, 0
	for first := 0; first < len(stores); first += group {
		round := stores[first : first+group]
		atMost := 0
		for i, st := range round {
			if st.frontDown {
				return nil, first + i, ErrFrontDown
			}
			if group == 1 {
				// Read alone, a store runs its leg whatever it holds, so
				// its Scan counts from here on (served-only counting, like
				// getLocked: a denied Scan never ran).
				st.ctr.Scans++
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
					return nil, first + i, ErrShardDown
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
				}
			}
			base += len(st.shards)
		}
		if limit > 0 {
			atMost = min(atMost, limit)
		}
		if cap(out)-len(out) < atMost {
			out = append(make([]Pair, 0, len(out)+atMost), out...)
		}
		for limit <= 0 || len(out) < limit {
			var next *shard
			var owner *Store
			for _, st := range round {
				for _, sh := range st.shards {
					if sh.scan.ok && (next == nil || sh.scan.key < next.scan.key) {
						next, owner = sh, st
					}
				}
			}
			if next == nil {
				break
			}
			owner.leg.picks = append(owner.leg.picks, pick{pos: len(out), sh: next, slot: next.scan.slot})
			out = append(out, Pair{Key: next.scan.key})
			next.scan.advance()
		}
		for i, st := range round {
			if group > 1 {
				if len(st.leg.picks) == 0 {
					continue // no leg
				}
				st.ctr.Scans++
			}
			if err := st.readLegLocked(out); err != nil {
				return nil, first + i, err
			}
		}
	}
	if group < len(stores) { // the rounds' runs, each ascending, into one
		slices.SortFunc(out, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
	}
	if parent != 0 {
		for c, st := range stores {
			if len(st.leg.picks) > 0 || group == 1 {
				st.rec.FanOutLeg(parent, obs.OpScan, c, st.leg.startNS, st.leg.endNS, len(st.leg.picks))
			}
		}
	}
	if missing > 0 {
		return out, -1, &PartialResultError{Op: "scan", Unavailable: unavailable, Missing: missing}
	}
	return out, -1, nil
}

// readLegLocked runs the store's leg of a range read: it reads the values
// of its picks, in key order, each into its place in out, then accounts
// the leg — its pairs, its scan-run prefetch and its span.
func (s *Store) readLegLocked(out []Pair) error {
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
		last := out[s.leg.picks[n-1].pos].Key
		ahead := make([]core.Val, 0, scanRunAhead)
		for i := core.Val(1); i <= scanRunAhead; i++ {
			ahead = append(ahead, last+i)
		}
		s.prefetchLocked(ahead)
	}
	s.ctr.ScannedPairs += uint64(len(s.leg.picks))
	s.leg.endNS = s.cluster.NowNS()
	s.rec.OpSpan(obs.OpScan, -1, s.leg.startNS, s.leg.endNS, len(s.leg.picks), 0, false)
	return nil
}
