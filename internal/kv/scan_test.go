package kv

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/obs"
)

// scanReference is Store.Scan as it stood before the view kept an
// ordered key set: collect every visible key in range from every
// shard's hash index (the slots of its key table, not the sorted key
// set Scan walks), sort them all, keep limit. It is the differential
// reference for the ordered walk (as core.TauSteps is for the occupancy
// index) and takes every step Scan takes — counters, flight retirement,
// demand reads in key order, the scan-run prefetch — so a store driven
// through it must stay bit-identical to one driven through Scan.
func scanReference(s *Store, lo, hi core.Val, limit int) ([]Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frontDown {
		return nil, ErrFrontDown
	}
	sstart := s.cluster.NowNS()
	type cand struct {
		key  core.Val
		slot int
		sh   *shard
	}
	var cands []cand
	var unavailable []int
	missing := 0
	for _, sh := range s.shards {
		if !sh.partitioned {
			s.retireReady(sh)
		}
		// The unordered range walk over the index's key table: every
		// occupied slot (its key stored as key+1), filtered to the range.
		var keys []core.Val
		var slots []int
		for _, e := range sh.view.index.slots { //cxl0:order-insensitive — sorted below
			if k := e.key - 1; e.key != 0 && k >= lo && k < hi {
				keys, slots = append(keys, k), append(slots, int(e.val))
			}
		}
		for i, k := range keys {
			if sh.down {
				return nil, ErrShardDown
			}
			if sh.partitioned {
				if !slices.Contains(unavailable, sh.id) {
					unavailable = append(unavailable, sh.id)
				}
				missing++
				continue
			}
			cands = append(cands, cand{key: k, slot: slots[i], sh: sh})
		}
	}
	s.ctr.Scans++
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.key, b.key) })
	if limit > 0 && len(cands) > limit {
		cands = cands[:limit]
	}
	out := make([]Pair, 0, len(cands))
	for _, c := range cands {
		v, err := s.readValue(c.sh, c.key, c.slot)
		if err != nil {
			return nil, err
		}
		out = append(out, Pair{Key: c.key, Val: v})
	}
	if s.pred != nil && len(out) > 0 {
		last := out[len(out)-1].Key
		ahead := make([]core.Val, 0, scanRunAhead)
		for i := core.Val(1); i <= scanRunAhead; i++ {
			ahead = append(ahead, last+i)
		}
		s.prefetchLocked(ahead)
	}
	s.ctr.ScannedPairs += uint64(len(out))
	s.rec.OpSpan(obs.OpScan, -1, sstart, s.cluster.NowNS(), len(out), 0, false)
	if missing > 0 {
		return out, &PartialResultError{Op: "scan", Unavailable: unavailable, Missing: missing}
	}
	return out, nil
}

// pastMark counts the shards of s whose log holds records past the
// view's mark, and the keys in [lo, hi) deleted past it while still
// visible — writes a scan must not see yet.
func pastMark(s *Store, lo, hi core.Val) (shards, deleted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		if sh.view.taken < len(sh.log) {
			shards++
		}
		for _, r := range sh.log[sh.view.taken:] {
			if _, ok := sh.view.visible(r.key); ok && !r.move && !r.copied && r.val == 0 && r.key >= lo && r.key < hi {
				deleted++
			}
		}
	}
	return shards, deleted
}

// checkCacheCoherent fails t unless every entry of s's read cache holds
// the value of its key's visible record: the one snoop rule (a cached
// copy dies when its key's visible state moves, or with the front end),
// stated as a check. It walks the LRU list, in recency order.
func checkCacheCoherent(t *testing.T, s *Store, step int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return
	}
	for i := s.cache.head; i != noSlot; i = s.cache.slab[i].next {
		e := &s.cache.slab[i]
		sh := s.shards[s.shardOf(e.key)]
		if slot, ok := sh.view.visible(e.key); !ok || sh.mirrorVal(slot) != e.val {
			t.Fatalf("step %d: key %d is cached as %d but its visible record is slot %d (visible %v) of shard %d",
				step, e.key, e.val, slot, ok, sh.id)
		}
	}
}

// TestScanMatchesReference drives two identically configured stores
// through one random put/delete/scan sequence with shards crashed and
// partitioned along the way, one scanning through Store.Scan and the
// other through scanReference. Every scan must agree on pairs, error
// type, Unavailable and Missing, every cached copy must hold its key's
// visible value after every step, and at the end the two stores must
// agree on every metric and on the simulated clock: the ordered walk
// issues exactly the reads the walk-and-sort issued, in the same order.
func TestScanMatchesReference(t *testing.T) {
	const (
		keys   = 240
		shards = 4
		steps  = 900
	)
	for _, tc := range []struct {
		name string
		cfg  Config
		// pastMark says the sequence must meet scans over shards with
		// client writes past the view's mark, keys deleted among them.
		pastMark bool
	}{
		{name: "depth=1", cfg: Config{Strategy: RangedCommit, Batch: 4, PipelineDepth: 1}},
		{name: "depth=2", cfg: Config{Strategy: RangedCommit, Batch: 4, PipelineDepth: 2}, pastMark: true},
		{name: "depth=1/cache+prefetch", cfg: Config{Strategy: RangedCommit, Batch: 4, PipelineDepth: 1, ReadCache: 32, Prefetch: true}},
		{name: "depth=2/cache+prefetch", cfg: Config{Strategy: RangedCommit, Batch: 4, PipelineDepth: 2, ReadCache: 32, Prefetch: true}, pastMark: true},
	} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Shards, cfg.Capacity, cfg.Seed, cfg.EvictEvery = shards, 4096, seed, 5
				got, ref := openTest(t, cfg), openTest(t, cfg)
				both := func(op func(*Store) error) {
					t.Helper()
					if g, r := op(got), op(ref); !reflect.DeepEqual(g, r) {
						t.Fatalf("the stores diverged outside Scan: %v vs %v", g, r)
					}
				}
				rng := rand.New(rand.NewSource(seed))
				down, cut := -1, -1
				scans, partial, failed, overMark, overDeleted := 0, 0, 0, 0, 0
				for step := 0; step < steps; step++ {
					key := core.Val(rng.Intn(keys))
					switch p := rng.Intn(100); {
					case p < 45:
						val := core.Val(1 + rng.Intn(1000))
						both(func(s *Store) error { _, err := s.Put(key, val); return err })
					case p < 60:
						both(func(s *Store) error { _, err := s.Delete(key); return err })
					case p < 63 && down < 0:
						down = rng.Intn(shards)
						both(func(s *Store) error { s.Crash(down); return nil })
					case p < 66 && cut < 0:
						cut = rng.Intn(shards)
						both(func(s *Store) error { s.Partition(cut); return nil })
					case p < 72 && down >= 0:
						both(func(s *Store) error { _, err := s.Recover(down); return err })
						down = -1
					case p < 78 && cut >= 0:
						both(func(s *Store) error { s.Heal(cut); return nil })
						cut = -1
					default:
						hi := []core.Val{key, key + core.Val(1+rng.Intn(keys/2)), math.MaxInt64}[rng.Intn(3)]
						limit := []int{0, 1, 16, keys + 1}[rng.Intn(4)]
						shards, deleted := pastMark(got, key, hi)
						overMark, overDeleted = overMark+shards, overDeleted+deleted
						gp, gerr := got.Scan(key, hi, limit)
						rp, rerr := scanReference(ref, key, hi, limit)
						if !slices.Equal(gp, rp) || !reflect.DeepEqual(gerr, rerr) {
							t.Fatalf("step %d: Scan(%d,%d,%d) = %v, %v; the reference says %v, %v",
								step, key, hi, limit, gp, gerr, rp, rerr)
						}
						scans++
						if _, ok := gerr.(*PartialResultError); ok {
							partial++
						} else if gerr != nil {
							failed++
						}
					}
					checkCacheCoherent(t, got, step)
					checkCacheCoherent(t, ref, step)
				}
				if gm, rm := got.Metrics(), ref.Metrics(); !reflect.DeepEqual(gm, rm) {
					t.Fatalf("metrics diverged:\n got %+v\n ref %+v", gm, rm)
				}
				if g, r := got.cluster.NowNS(), ref.cluster.NowNS(); g != r {
					t.Fatalf("simulated clocks diverged: %v vs %v", g, r)
				}
				if scans == 0 || partial == 0 || failed == 0 {
					t.Fatalf("%d scans, %d partial, %d failed: the sequence did not reach every outcome", scans, partial, failed)
				}
				if tc.pastMark && (overMark == 0 || overDeleted == 0) {
					t.Fatalf("%d scans met writes past the mark, %d in-range keys deleted past it: the watermark went untested",
						overMark, overDeleted)
				}
			})
		}
	}
}
