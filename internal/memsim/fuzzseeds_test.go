package memsim

import (
	"math/rand"
	"slices"
	"testing"

	"cxl0/internal/core"
)

// clusterSeeds returns FuzzCluster's generated seeds: sixty clusters of
// records (recordSeed) and the overlay's script under each variant
// (overlaySeed).
func clusterSeeds() [][]byte {
	var seeds [][]byte
	for seed := range int64(60) {
		seeds = append(seeds, recordSeed(seed))
	}
	for _, v := range core.Variants {
		seeds = append(seeds, overlaySeed(v))
	}
	return seeds
}

// TestClusterSeedsReachTheirShapes holds FuzzCluster's generated seeds to
// the breadth of the drivers they replaced: records across an occupancy
// word, across an owner's run (some inside one word) and across an
// eviction draw; record calls that fail after their first word; charges
// that only a clean copy made cached; and Churn draws, at least half of
// them taking a step.
func TestClusterSeedsReachTheirShapes(t *testing.T) {
	var sum seedShapes
	for _, prog := range clusterSeeds() {
		for i, n := range runCluster(t, prog) {
			sum[i] += n
		}
	}
	t.Logf("records across a word %d, an owner run %d (inside a word %d), a draw %d; failed partway %d; clean charges %d; churn draws %d (%d a step)",
		sum[acrossWord], sum[acrossOwner], sum[ownersInWord], sum[acrossDraw], sum[failedPartway], sum[cleanCharges], sum[churnDraws], sum[churnSteps])
	least := seedShapes{acrossWord: 50, acrossOwner: 50, ownersInWord: 20, acrossDraw: 50, failedPartway: 20, cleanCharges: 25, churnDraws: 500, churnSteps: sum[churnDraws] / 2}
	for i := range sum {
		if sum[i] < least[i] {
			t.Errorf("the seeds are too thin: %v, want at least %v", sum, least)
			break
		}
	}
}

// script writes a FuzzCluster program.
type script struct {
	prog     []byte
	machines int
	topo     *core.Topology
}

// newScript starts a program with header h, its missing bytes zero.
func newScript(h ...byte) *script {
	h = append(h, make([]byte, clusterHeader-len(h))...)
	machines, cfg, _ := clusterConfig(h)
	return &script{prog: h, machines: len(machines), topo: NewCluster(machines, cfg).Topology()}
}

// op appends an op of kind k (decode's low four bits) with argument p, by
// machine m, seeding values with v, at line x.
func (s *script) op(k, p, m, v int, x core.LocID) {
	s.prog = append(s.prog, byte(k|p<<4), byte(m+s.machines*v), byte(x>>8), byte(x))
}

// recordSeed is a cluster of two to five owners, some volatile, with heaps
// that share occupancy words, any variant, evicting every 0–8 primitives,
// on degraded devices (one in four charging no latency model), and 150
// rounds of its script: records of one to eight words — half of them
// ending just past the start of an occupancy word or of the next owner's
// run — and their reads, now and then with the owner of the last line
// partitioned; ranged flushes, churns, crashes and the other primitives
// among them.
func recordSeed(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	owners := 2 + rng.Intn(4)
	h := []byte{byte(owners - 2 + 4*rng.Intn(3)), byte(rng.Intn(9)), byte(seed), byte(rng.Intn(4) << 1), 0}
	for range owners { // volatile one time in three
		kind := byte(rng.Intn(4) << 1)
		if rng.Intn(3) == 0 {
			kind |= 1
		}
		h = append(h, kind, byte(rng.Intn(150)))
	}
	if seed%4 == 3 { // no latency model: the clock stays at 0
		h[1] |= 16
	}
	s := newScript(h...)
	locs := s.topo.NumLocs()
	for range 150 {
		m, n := rng.Intn(s.machines), 1+rng.Intn(8)
		base := core.LocID(rng.Intn(locs))
		if rng.Intn(2) == 0 { // just before the next word, or the end of base's owner stretch
			_, past := s.topo.OwnerThrough(base)
			edge := []int{int(base)&^63 + 64, int(past)}[rng.Intn(2)]
			base = core.LocID(min(max(0, edge-1-rng.Intn(4)), locs-1))
		}
		store := func() { s.op(rng.Intn(3), n-1, m, rng.Intn(40), base) }
		switch k := rng.Intn(20); {
		case k < 12:
			store()
		case k < 15:
			s.op(4, n-1, m, 0, base) // LoadWords
		case k < 16:
			s.op(7, rng.Intn(16), m, 0, base) // RFlushRange
		case k < 17:
			s.op(12, 2, m, 0, 0) // Churn(3)
		case k < 18:
			s.op(13, 0, m, 0, 0) // crash and recover, or recover
		case k < 19: // another primitive, a crash that stays down or a degrade
			s.op([]int{3, 5, 6, 8, 9, 10, 11, 13, 15}[rng.Intn(9)], rng.Intn(16), m, rng.Intn(40), base)
		default: // a record with the owner of its last line cut off
			down := int(s.topo.Owner(min(base+core.LocID(n-1), core.LocID(locs-1))))
			s.op(14, 0, down, 0, 0)
			store()
			s.op(14, 0, down, 0, 0)
		}
	}
	return s.prog
}

// overlaySeed is 600 rounds of every primitive under variant on a front
// end and two owners of 96 lines, the second volatile, three of four of
// them on the sixteen lines either side of the border between the heaps,
// so that lines are met again; the owners crash and recover in turn every
// hundred rounds. Under PSN it is the shape of the eviction driver it
// replaced.
func overlaySeed(variant core.Variant) []byte {
	const heap = 96
	s := newScript(byte(4*slices.Index(core.Variants, variant)), 0, 17, 0, 0, 0, heap-1, 1, heap-1)
	rng := rand.New(rand.NewSource(3))
	for round := range 600 {
		m, v := rng.Intn(s.machines), rng.Intn(9)
		x := core.LocID(rng.Intn(2 * heap))
		if rng.Intn(4) > 0 {
			x = heap - 8 + x%16
		}
		switch k := rng.Intn(40); {
		case k < 14:
			s.op(3, 0, m, v, x) // Load
		case k < 20:
			s.op(rng.Intn(3), 0, m, v, x) // a one-word store
		case k < 24:
			s.op(5, 0, m, v, x) // LFlush
		case k < 26:
			s.op(6, 0, m, v, x) // RFlush
		case k < 28:
			s.op(7, rng.Intn(14), m, v, x) // RFlushRange
		case k < 32:
			s.op([]int{9, 9, 10}[rng.Intn(3)], rng.Intn(3), m, v, x) // CAS
		case k < 34:
			s.op(11, rng.Intn(3), m, v, x) // FAA
		case k < 39:
			s.op(12, 0, m, v, x) // Churn(1)
		default:
			s.op(8, 0, m, v, x)  // GPF
			s.op(12, 0, m, v, x) // Churn(1) with nothing cached
		}
		if round%100 == 99 {
			s.op(13, 0, 1+round/100%2, 0, 0)
		}
	}
	return s.prog
}
