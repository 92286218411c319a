package memsim

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/latency"
)

// FuzzCluster holds the runtime to a plain reference, op by op: see
// runCluster. The seed corpus is clusterSeeds' generated programs and
// testdata/fuzz/FuzzCluster.
func FuzzCluster(f *testing.F) {
	for _, prog := range clusterSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runCluster(t, data) })
}

// clusterHeader is the length of a FuzzCluster input's header: the number
// of owners (2–5) and the variant; EvictEvery (0–8), and a bit that leaves
// the latency model out; the eviction seed; then for each of six machines —
// the front end, which owns nothing, and the owners in turn — a byte whose
// low bit makes an owner's memory volatile and whose next two pick its
// degrade factor, and a byte for an owner's heap (1–150 lines), the heaps
// laid end to end so that owners share occupancy words.
const clusterHeader = 3 + 2*6

// factors are the degrade factors a header or a degrade op picks from; 1.3
// makes the clock's sums round, so the order of its additions shows.
var factors = [4]float64{1, 1.3, 1.5, 4}

// clusterConfig decodes a header: the machines, the configuration and each
// machine's degrade factor.
func clusterConfig(h []byte) ([]MachineConfig, Config, []float64) {
	owners := 2 + int(h[0])%4
	cfg := Config{Variant: core.Variants[int(h[0])/4%3], EvictEvery: int(h[1]&15) % 9, Seed: int64(h[2])}
	if h[1]&16 == 0 {
		cfg.Latency = latency.NewModel()
	}
	machines := []MachineConfig{{Name: "front", Mem: core.NonVolatile}}
	degrade := []float64{factors[h[3]>>1&3]}
	for i := range owners {
		kind, heap := h[5+2*i], h[6+2*i]
		mem := core.NonVolatile
		if kind&1 == 1 {
			mem = core.Volatile
		}
		machines = append(machines, MachineConfig{Name: fmt.Sprintf("dev%d", i), Mem: mem, Heap: 1 + int(heap)%150})
		degrade = append(degrade, factors[kind>>1&3])
	}
	return machines, cfg, degrade
}

// runCluster runs a FuzzCluster input: its header builds a cluster and a
// refCluster alike, and the rest is a program of four-byte ops, each run
// on the cluster's threads and on the reference. An op's first byte picks
// its kind by its low four bits, and its high four, p, are an argument; the
// second is the machine, modulo their number, and the quotient v seeds the
// values; the last two are the line, modulo their number. After every op
// the two must return the same values and errors of the same class, and
// the cluster must hold what the reference holds (matches); at the end
// their next eviction draw must match. It returns the shapes the program
// reached.
func runCluster(t *testing.T, data []byte) seedShapes {
	if len(data) < clusterHeader {
		return seedShapes{}
	}
	machines, cfg, degrade := clusterConfig(data[:clusterHeader])
	c := NewCluster(machines, cfg)
	r := newRefCluster(t, c.Topology(), cfg, degrade)
	threads := make([]*Thread, len(machines))
	for m, f := range degrade {
		c.Degrade(core.MachineID(m), f)
		threads[m] = mustThread(t, c, core.MachineID(m))
	}
	locs := c.Topology().NumLocs()
	for i, ops := 0, data[clusterHeader:]; len(ops) >= 4; i, ops = i+1, ops[4:] {
		k, p := ops[0]&15, int(ops[0]>>4)
		m, v := core.MachineID(int(ops[1])%len(machines)), int(ops[1])/len(machines)
		x := core.LocID((int(ops[2])<<8 | int(ops[3])) % locs)
		th, n := threads[m], min(1+p, locs-int(x)) // a record stops at the last line
		rmw := []core.Op{core.OpLRMW, core.OpRRMW, core.OpMRMW}[p%3]
		var got, want string
		switch k {
		case 0, 1, 2: // a record of n words
			op, vals := []core.Op{core.OpLStore, core.OpRStore, core.OpMStore}[k], make([]core.Val, n)
			for j := range vals {
				vals[j] = core.Val((v + 7*j) % 50)
			}
			got, want = result(nil, th.StoreWords(op, x, vals)), result(nil, r.storeWords(op, m, x, vals))
		case 3:
			ref := []core.Val{0}
			err := r.loadWords(m, x, ref)
			got, want = result(th.Load(x)), result(ref[0], err)
		case 4: // n words read
			dst, ref := make([]core.Val, n), make([]core.Val, n)
			err := th.LoadWords(x, dst)
			got, want = result(dst, err), result(ref, r.loadWords(m, x, ref))
		case 5:
			got, want = result(nil, th.LFlush(x)), result(nil, r.flush(core.OpLFlush, m, x))
		case 6:
			got, want = result(nil, th.RFlush(x)), result(nil, r.flush(core.OpRFlush, m, x))
		case 7: // 1+3p lines
			n := min(1+3*p, locs-int(x))
			got, want = result(nil, th.RFlushRange(x, n)), result(nil, r.flushRange(m, x, n))
		case 8:
			got, want = result(nil, th.GPF()), result(nil, r.gpf(m))
		case 9, 10: // a CAS that wins, and one that fails
			old, new := r.st.Readable(x)+core.Val(k-9), core.Val(1+v%9)
			got, want = result(th.CAS(rmw, x, old, new)), result(r.cas(rmw, m, x, old, new))
		case 11:
			got, want = result(th.FAA(rmw, x, core.Val(v%3))), result(r.faa(rmw, m, x, core.Val(v%3)))
		case 12:
			c.Churn(1 + p%3)
			r.churn(1 + p%3)
		case 13: // a crash, recovered at once when p is even; a recovery of a machine that is down
			if r.alive[m] {
				c.Crash(m)
				r.crash(m)
				if p%2 == 1 {
					break
				}
			}
			c.Recover(m)
			r.alive[m] = true
			threads[m] = mustThread(t, c, m)
		case 14: // a partition, or the heal of a partitioned machine
			if r.unreach[m] = !r.unreach[m]; r.unreach[m] {
				c.Partition(m)
			} else {
				c.Heal(m)
			}
		default:
			c.Degrade(m, factors[p%4])
			r.degrade[m] = factors[p%4]
		}
		if got != want {
			t.Fatalf("op %d (% x): the cluster returned %s, the reference %s", i, ops[:4], got, want)
		}
		if err := r.matches(c); err != nil {
			t.Fatalf("after op %d (% x): %v", i, ops[:4], err)
		}
	}
	if x, y := c.rng.Int63(), r.rng.Int63(); x != y {
		t.Fatalf("the next eviction draws part: %d and the reference's %d", x, y)
	}
	return r.shapes
}

// result renders what a primitive returned, its error as its class: the
// sentinel it wraps.
func result(v any, err error) string {
	for _, class := range []error{ErrCrashed, ErrUnreachable} {
		if errors.Is(err, class) {
			err = class
		}
	}
	return fmt.Sprint(v, err)
}

// refCluster is the runtime written plainly, one line at a time: a
// core.State stepped only by ApplyInPlace and ApplyTauInPlace — a record a
// loop of single stores, a drain a loop of one line's τ steps, an eviction
// step k of core.TauSteps for a draw k of a generator seeded as the
// cluster's — the clean-copy overlay as one map of lines per machine, the
// clock charged primitive by primitive from the latency model, and the
// primitive counts. It also counts the shapes its program reaches.
type refCluster struct {
	t              testing.TB
	topo           *core.Topology
	st             *core.State
	variant        core.Variant
	lat            *latency.Model
	every, ticks   uint64 // EvictEvery, and the primitives the eviction clock counted
	rng            *rand.Rand
	alive, unreach []bool
	degrade        []float64
	hot            hotModel
	clock          float64
	stats          map[core.Op]uint64
	shapes         seedShapes
}

// The shapes a program reaches, as seedShapes counts them.
const (
	acrossWord    = iota // records across an occupancy word
	acrossOwner          // records across an owner's run
	ownersInWord         // of those, inside one word
	acrossDraw           // records across an eviction draw
	failedPartway        // record calls failing after their first word
	cleanCharges         // charges only the overlay made cached
	churnDraws           // Churn's draws
	churnSteps           // Churn's draws that took a step
	shapeKinds
)

type seedShapes [shapeKinds]int

// newRefCluster builds the reference of a cluster of topo's machines.
func newRefCluster(t testing.TB, topo *core.Topology, cfg Config, degrade []float64) *refCluster {
	n := topo.NumMachines()
	r := &refCluster{
		t: t, topo: topo, st: core.NewState(topo), variant: cfg.Variant, lat: cfg.Latency,
		every: uint64(max(cfg.EvictEvery, 0)), rng: rand.New(rand.NewSource(cfg.Seed)),
		alive: slices.Repeat([]bool{true}, n), unreach: make([]bool, n), degrade: slices.Clone(degrade),
		hot: make(hotModel, n), stats: map[core.Op]uint64{},
	}
	for m := range r.hot {
		r.hot[m] = map[core.LocID]bool{}
	}
	return r
}

// hotModel is the clean-copy overlay as it was first written: one map of
// lines per machine. A clean copy equals memory, so whatever changes
// memory cools every copy of the line.
type hotModel []map[core.LocID]bool

func (h hotModel) coolAll(x core.LocID) {
	for _, lines := range h {
		delete(lines, x)
	}
}

// stored is the overlay's move for a store, or the store half of an RMW,
// by m to x: every other copy cools, and the L kinds leave one in m's
// cache, the R kinds in the owner's; the M kinds go to memory.
func (h hotModel) stored(op core.Op, m, owner core.MachineID, x core.LocID) {
	h.coolAll(x)
	switch op {
	case core.OpLStore, core.OpLRMW:
		h[m][x] = true
	case core.OpRStore, core.OpRRMW:
		h[owner][x] = true
	default: // the M kinds leave no copy
	}
}

// gate is a primitive's precondition on line x: its issuer alive, and the
// line's owner, when another machine, reachable from it. It returns the
// owner.
func (r *refCluster) gate(m core.MachineID, x core.LocID) (core.MachineID, error) {
	owner := r.topo.Owner(x)
	if !r.alive[m] {
		return owner, ErrCrashed
	}
	if owner != m && (r.unreach[m] || r.unreach[owner]) {
		return owner, ErrUnreachable
	}
	return owner, nil
}

// tau takes one τ step and moves the overlay with it: a copy moved to the
// owner's cache leaves the source's row for the owner's; a write-back
// changes memory.
func (r *refCluster) tau(ts core.TauStep) {
	core.ApplyTauInPlace(r.st, ts)
	if ts.ToMemory {
		r.hot.coolAll(ts.Loc)
		return
	}
	delete(r.hot[ts.From], ts.Loc)
	r.hot[r.topo.Owner(ts.Loc)][ts.Loc] = true
}

// drain empties every cache of x: each other holder's copy to the owner's
// cache, then the owner's write-back.
func (r *refCluster) drain(x core.LocID) {
	owner := r.topo.Owner(x)
	for m := range core.MachineID(len(r.alive)) {
		if m != owner && r.st.Cache(m, x) != core.Bot {
			r.tau(core.TauStep{From: m, Loc: x})
		}
	}
	if r.st.Cache(owner, x) != core.Bot {
		r.tau(core.TauStep{From: owner, Loc: x, ToMemory: true})
	}
}

// evict takes step k of core.TauSteps for the next draw k, and reports
// whether a step was enabled.
func (r *refCluster) evict() bool {
	steps := core.TauSteps(r.st)
	if len(steps) == 0 {
		return false
	}
	r.tau(steps[r.rng.Intn(len(steps))])
	return true
}

func (r *refCluster) churn(n int) {
	for range n {
		r.shapes[churnDraws]++
		if r.evict() {
			r.shapes[churnSteps]++
		}
	}
}

// step takes the labeled step l, which must be enabled.
func (r *refCluster) step(l core.Label) {
	if !core.ApplyInPlace(r.st, l, r.variant) {
		r.t.Fatalf("reference: %v not enabled in %v", l, r.st)
	}
}

// charge counts one primitive op by m on a line of dev's and adds its cost
// to the clock; then the eviction clock ticks.
func (r *refCluster) charge(op core.Op, m, dev core.MachineID, cached bool) {
	r.stats[op]++
	if r.lat != nil {
		r.clock += r.lat.CXL0CostCached(op, m == dev, cached) * r.degrade[dev]
	}
	r.tick()
}

func (r *refCluster) tick() {
	if r.every > 0 {
		if r.ticks++; r.ticks%r.every == 0 {
			r.evict()
		}
	}
}

// cached is whether m holds x, semantically or as a clean copy, for the
// cost of a load or an RMW.
func (r *refCluster) cached(m core.MachineID, x core.LocID) bool {
	if r.st.Cache(m, x) != core.Bot {
		return true
	}
	if r.hot[m][x] {
		r.shapes[cleanCharges]++
		return true
	}
	return false
}

// storeWords is a loop of single stores, stopping at the first whose gate
// fails.
func (r *refCluster) storeWords(op core.Op, m core.MachineID, base core.LocID, vals []core.Val) error {
	r.countRecord(base, len(vals))
	for i, v := range vals {
		x := base + core.LocID(i)
		owner, err := r.gate(m, x)
		if err != nil {
			r.countFailure(i)
			return err
		}
		r.step(core.Label{Op: op, M: m, Loc: x, Val: v})
		r.hot.stored(op, m, owner, x)
		r.charge(op, m, owner, false)
	}
	return nil
}

// loadWords is a loop of single loads into dst, stopping at the first whose
// gate fails.
func (r *refCluster) loadWords(m core.MachineID, base core.LocID, dst []core.Val) error {
	for i := range dst {
		x := base + core.LocID(i)
		owner, err := r.gate(m, x)
		if err != nil {
			r.countFailure(i)
			return err
		}
		dst[i] = r.loaded(m, owner, x)
	}
	return nil
}

// loaded is m's load of x, past its gate: under LWB, a line m does not
// cache is drained first.
func (r *refCluster) loaded(m, owner core.MachineID, x core.LocID) core.Val {
	cached := r.cached(m, x)
	if r.variant == core.LWB && r.st.Cache(m, x) == core.Bot {
		r.drain(x)
	}
	v := r.st.Readable(x)
	r.step(core.LoadL(m, x, v))
	r.hot[m][x] = true
	r.charge(core.OpLoad, m, owner, cached)
	return v
}

// flush is an LFlush, which moves m's copy one level towards memory, or an
// RFlush, which drains every copy.
func (r *refCluster) flush(op core.Op, m core.MachineID, x core.LocID) error {
	owner, err := r.gate(m, x)
	if err != nil {
		return err
	}
	if op == core.OpRFlush {
		r.drain(x)
		r.hot.coolAll(x)
	} else {
		if r.st.Cache(m, x) != core.Bot {
			r.tau(core.TauStep{From: m, Loc: x, ToMemory: m == owner})
		}
		delete(r.hot[m], x)
	}
	r.step(core.Label{Op: op, M: m, Loc: x})
	r.charge(op, m, owner, false)
	return nil
}

// flushRange is RFlushRange: every owner of the range reachable, every
// line drained, and one flush command charged per owning device, in
// machine order, for its share of the lines.
func (r *refCluster) flushRange(m core.MachineID, base core.LocID, n int) error {
	lines := make([]int, len(r.alive))
	for x := base; x < base+core.LocID(n); x++ {
		owner, err := r.gate(m, x)
		if err != nil {
			return err
		}
		lines[owner]++
	}
	for x := base; x < base+core.LocID(n); x++ {
		r.drain(x)
		r.hot.coolAll(x)
	}
	r.step(core.RFlushRangeL(m, base, n))
	r.stats[core.OpRFlushRange]++
	for dev, n := range lines {
		if n > 0 && r.lat != nil {
			r.clock += r.lat.RFlushRangeCost(n, core.MachineID(dev) == m) * r.degrade[dev]
		}
	}
	r.tick()
	return nil
}

// gpf is GPF: the whole fabric reachable, every line drained, the flush
// charged at the slowest device's factor, and no eviction after it.
func (r *refCluster) gpf(m core.MachineID) error {
	if !r.alive[m] {
		return ErrCrashed
	}
	if slices.Contains(r.unreach, true) {
		return ErrUnreachable
	}
	for x := range core.LocID(r.topo.NumLocs()) {
		r.drain(x)
	}
	r.step(core.GPFL(m))
	r.stats[core.OpGPF]++
	if r.lat != nil {
		r.clock += r.lat.CXL0CostCached(core.OpGPF, false, false) * max(1, slices.Max(r.degrade))
	}
	return nil
}

// cas is a CAS; one whose compare fails is a load.
func (r *refCluster) cas(op core.Op, m core.MachineID, x core.LocID, old, new core.Val) (bool, error) {
	owner, err := r.gate(m, x)
	if err != nil {
		return false, err
	}
	if r.st.Readable(x) != old {
		r.loaded(m, owner, x)
		return false, nil
	}
	r.rmw(op, m, owner, x, old, new)
	return true, nil
}

func (r *refCluster) faa(op core.Op, m core.MachineID, x core.LocID, delta core.Val) (core.Val, error) {
	owner, err := r.gate(m, x)
	if err != nil {
		return 0, err
	}
	cur := r.st.Readable(x)
	r.rmw(op, m, owner, x, cur, cur+delta)
	return cur, nil
}

func (r *refCluster) rmw(op core.Op, m, owner core.MachineID, x core.LocID, old, new core.Val) {
	cached := r.cached(m, x)
	r.step(core.RMWL(op, m, x, old, new))
	r.hot.stored(op, m, owner, x)
	r.charge(op, m, owner, cached)
}

// crash is m's crash: its copies go and, where the crash resets memory (a
// volatile machine's lines) or drops every cached copy (PSN), every copy of
// a line m owns.
func (r *refCluster) crash(m core.MachineID) {
	r.step(core.CrashL(m))
	r.alive[m] = false
	clear(r.hot[m])
	if r.variant == core.PSN || r.topo.Mem(m) == core.Volatile {
		for x := range core.LocID(r.topo.NumLocs()) {
			if r.topo.Owner(x) == m {
				r.hot.coolAll(x)
			}
		}
	}
}

// countRecord counts what a record of n words from base crosses.
func (r *refCluster) countRecord(base core.LocID, n int) {
	last := base + core.LocID(n-1)
	if base>>6 != last>>6 {
		r.shapes[acrossWord]++
	}
	if r.topo.Owner(base) != r.topo.Owner(last) {
		r.shapes[acrossOwner]++
		if base>>6 == last>>6 {
			r.shapes[ownersInWord]++
		}
	}
	if r.every > 0 && r.ticks%r.every+uint64(n) > r.every {
		r.shapes[acrossDraw]++
	}
}

// countFailure counts a record call failing at word i.
func (r *refCluster) countFailure(i int) {
	if i > 0 {
		r.shapes[failedPartway]++
	}
}

// matches reports how c differs from the reference: the state's key, CXL0's
// global invariant, the primitive counts, the clock's bits, the eviction
// clock and the overlay, line for line, its warm mask covering every
// clean copy.
func (r *refCluster) matches(c *Cluster) error {
	if got := c.Snapshot(); got.Key() != r.st.Key() {
		return fmt.Errorf("the state is %v, the reference's %v", got, r.st)
	}
	if err := c.CheckInvariant(); err != nil {
		return err
	}
	if got := c.Stats(); !maps.Equal(got, r.stats) {
		return fmt.Errorf("Stats %v, the reference counts %v", got, r.stats)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := c.clockBits.Load(); got != math.Float64bits(r.clock) || c.clockNS != r.clock {
		return fmt.Errorf("the clock reads %v, the reference's %v", math.Float64frombits(got), r.clock)
	}
	if c.opCount != r.ticks {
		return fmt.Errorf("the eviction clock counted %d primitives, the reference's %d", c.opCount, r.ticks)
	}
	words := make([]uint64, (r.topo.NumLocs()+63)/64)
	for m, lines := range r.hot {
		clear(words)
		for x := range lines { //cxl0:order-insensitive — OR-ing bits into words
			words[x>>6] |= 1 << (x & 63)
		}
		for w, want := range words {
			if got := c.hot.lines[m].Word(w); got != want {
				return fmt.Errorf("machine %d's clean copies in word %d are %#x, the reference's %#x", m, w, got, want)
			}
			if want != 0 && !c.hot.warm.Has(core.MachineID(m), core.LocID(w<<6)) {
				return fmt.Errorf("machine %d holds clean copies in word %d, but warm leaves it out", m, w)
			}
		}
	}
	return nil
}
