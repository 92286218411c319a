// Package memsim is an executable runtime for the CXL0 model: a simulated
// cluster of machines sharing coherent disaggregated memory, on which real
// goroutines run concurrent algorithms against the paper's operational
// semantics.
//
// Every primitive takes the cluster's global lock and applies the
// corresponding CXL0 transition from package core, so the set of traces the
// runtime can produce is exactly the set the LTS allows. FuzzCluster holds
// it to that: a fuzzed cluster and program run beside a plain reference —
// a core.State stepped one line at a time, the clean-copy overlay as a map,
// the clock charged primitive by primitive — and must agree with it after
// every operation. A load, flush or RMW on one line takes one path:
// Thread.beginLocked (alive, the line's owner resolved once, reachable),
// the primitive resolved to a label against the live state
// (core.State.Observed for what a load — or a failed CAS — reads), then
// Cluster.stepLocked, the only caller of core.ApplyInPlace: the state
// steps, the clean-copy overlay follows the label through one table
// (followLocked), the cost is charged and the eviction clock ticks. Stores
// take the record path below, through the same table, charge and clock.
//
// Nondeterministic cache eviction (the τ steps) is injected
// probabilistically after operations and on demand via Churn: one seeded
// draw k below core.State.TauStepCount picks step k of core.TauSteps'
// (machine, loc) order, which core.State.TauStepAt returns from the state's
// occupancy index, so an eviction costs the host the same whatever the size
// of the state. GPF and Crash likewise visit only the lines some cache
// holds. Every "which machines cache line x" question is answered by the
// holders, not by the machines, as a CXL device's snoop filter answers it:
// the state keeps a holder mask per 64-line occupancy word, so a store's
// invalidation and a τ write-back ask only the machines that hold a page
// for the line's word. Every flush of all caches — RFlush, an LWB load's
// write-back, RFlushRange — drains through one policy,
// core.State.DrainRange, a word at a time over the holding rows instead of
// line by line over every machine. Every τ step the runtime takes is a
// word step (core.TauWord, applied by applyTauLocked): the lines of one
// machine's 64-line occupancy word and one owner's run, moved or written
// back at once — whole words for GPF's and the flushes' drains, one bit
// for an eviction and an LFlush — and the clean-copy overlay follows it by
// the same word mask. The overlay's cooling asks only the machines its own
// warm mask names, a ranged flush's a word at a time.
//
// A store is a word step too. Thread.StoreWords writes a record — the
// consecutive words a caller such as a KV log writes at once — under one
// take of the lock: the stores to one occupancy word and one owner's
// stretch that no eviction draw separates are one
// core.ApplyStoreWordInPlace step (Cluster.storeLocked), the overlay
// follows them by the word's mask, each is charged in order and the
// eviction clock ticks once per store, so the record ends where a loop of
// single stores would, eviction draws included; LStore, RStore and MStore
// are its one-word calls. A record's loads share one lock too
// (Thread.LoadWords) but stay one step each: a load's cost depends on
// whether its line was cached, and an LWB load may drain first.
// Crashes and recoveries are injected through Crash and Recover. A
// simulated clock charges each primitive the latency model's cost, enabling
// performance comparisons between persistence strategies that wall-clock
// time on a single host cannot expose; it moves only where a primitive is
// charged, under the lock, and is published there, so reading it (NowNS)
// takes no lock.
//
// A cluster's footprint follows its locations and what is cached, not
// machines × locations: the state keeps a cache row as pages of 64 cells
// that exist only while they hold a line, the topology keeps owners as one
// run per heap (a ranged flush is charged by walking the runs it crosses),
// and the clean-copy overlay that cost accounting needs is one
// core.LineSet per machine — the bitset type of the state's occupancy
// index — under one core.MachineMask. NewCluster allocates memory, the
// per-machine tables, those sets and their mask, and nothing per cache
// cell.
package memsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"cxl0/internal/core"
	"cxl0/internal/latency"
)

// ErrCrashed is returned by thread operations after the thread's machine
// crashed: the thread's local state (registers, program counter) is gone,
// per the paper's failure model. A fresh thread must be created after
// Recover.
var ErrCrashed = errors.New("memsim: machine crashed; thread lost")

// ErrOutOfMemory is returned when a machine's heap is exhausted.
var ErrOutOfMemory = errors.New("memsim: machine heap exhausted")

// ErrUnreachable is returned by thread operations that need the fabric to
// reach a partitioned machine. Unlike ErrCrashed, the machine itself is
// healthy: its caches and memory are intact, its threads stay valid, and
// Heal restores service without any recovery procedure. A partitioned
// machine is an isolated island — it can still operate on its own
// locations, but no cross-machine access succeeds in either direction.
var ErrUnreachable = errors.New("memsim: machine unreachable (fabric partition)")

// MachineConfig describes one machine of a cluster.
type MachineConfig struct {
	Name string
	Mem  core.MemKind
	// Heap is the number of shared memory locations attached to this
	// machine.
	Heap int
}

// Config controls a cluster's nondeterminism and cost accounting.
type Config struct {
	// Variant selects the model flavour (Base, PSN, LWB).
	Variant core.Variant
	// EvictEvery injects one random τ propagation step after roughly every
	// n-th primitive (0 disables background eviction; 1 evicts after every
	// operation).
	EvictEvery int
	// Seed drives the eviction randomness, for reproducibility.
	Seed int64
	// Latency, when non-nil, charges each primitive its modeled cost on
	// the simulated clock.
	Latency *latency.Model
}

// Cluster is a running CXL0 system.
type Cluster struct {
	mu    sync.Mutex
	topo  *core.Topology
	st    *core.State
	cfg   Config
	rng   *rand.Rand
	alive []bool
	epoch []uint64
	// unreach marks machines cut off by a fabric partition: healthy but
	// unreachable from every other machine (see ErrUnreachable). degrade
	// holds per-machine latency multipliers (finite and >= 1, see Degrade): a
	// degraded device charges factor× the modeled cost for every operation
	// its memory serves, without any semantic effect.
	unreach []bool
	degrade []float64
	// allocation state, per machine
	heapBase []core.LocID
	heapSize []int
	heapNext []int

	// clockNS is the simulated clock; it moves in chargeLocked and nowhere
	// else, and clockBits is its bit pattern, published there so NowNS —
	// called around every primitive by the layers above — takes no lock.
	clockNS   float64
	clockBits atomic.Uint64

	stamp   uint64
	opCount uint64
	opStats [16]uint64 // indexed by core.Op

	// hot tracks, per machine, lines for which the machine holds a CLEAN
	// cached copy. The CXL0 LTS deliberately does not model clean copies
	// (a copy equal to memory is observationally irrelevant for crash
	// behaviour, so LOAD-from-M leaves C unchanged), but they matter for
	// cost: real hardware serves repeated reads of a clean line from
	// cache. This overlay exists purely for latency accounting and never
	// influences semantics: it follows the state, one row of followLocked
	// per label and applyTauLocked for a τ step, and nothing else writes
	// it (TestSeams).
	hot overlay

	// flushLines is chargeLocked's scratch: lines of the range being
	// flushed, per owning machine.
	flushLines []int
}

// overlay is the clean-copy overlay: per machine, the lines it holds a
// clean copy of, as the bitset type the state's occupancy index is made of
// — warming, cooling and asking are bit operations, and a crash clears a
// row — and over them warm, a superset, per occupancy word, of the
// machines with a line of the word. A bit of warm is set when a line is
// added and cleared when cooling a line finds the machine's word empty, so
// cooling asks only the machines that may hold the line, as the state's
// holder mask lets a store ask only the caches that hold it.
type overlay struct {
	lines []core.LineSet // [machine]
	warm  core.MachineMask
}

// NewCluster builds a cluster with the given machines and pre-provisioned
// heaps.
func NewCluster(machines []MachineConfig, cfg Config) *Cluster {
	n := len(machines)
	c := &Cluster{
		topo:       core.NewTopology(),
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		alive:      slices.Repeat([]bool{true}, n),
		epoch:      make([]uint64, n),
		unreach:    make([]bool, n),
		degrade:    slices.Repeat([]float64{1}, n),
		heapBase:   make([]core.LocID, n),
		heapSize:   make([]int, n),
		heapNext:   make([]int, n),
		hot:        overlay{lines: make([]core.LineSet, n)},
		flushLines: make([]int, n),
	}
	for i, mc := range machines {
		m := c.topo.AddMachine(mc.Name, mc.Mem)
		c.heapBase[i], c.heapSize[i] = c.topo.AddLocs(m, mc.Heap), mc.Heap
	}
	c.st = core.NewState(c.topo)
	for m := range c.hot.lines {
		c.hot.lines[m] = core.NewLineSet(c.topo.NumLocs())
	}
	c.hot.warm = core.NewMachineMask(n, c.topo.NumLocs())
	return c
}

// Topology returns the cluster's topology.
func (c *Cluster) Topology() *core.Topology { return c.topo }

// Machines returns the number of machines.
func (c *Cluster) Machines() int { return c.topo.NumMachines() }

// Alloc reserves n contiguous locations on machine m's heap.
func (c *Cluster) Alloc(m core.MachineID, n int) (core.LocID, error) {
	if n < 0 {
		return 0, fmt.Errorf("memsim: Alloc needs n >= 0, got %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// n is compared with what is left of the heap: heapNext+n can overflow.
	if n > c.heapSize[m]-c.heapNext[m] {
		return 0, fmt.Errorf("%w: machine %s (%d of %d used)",
			ErrOutOfMemory, c.topo.MachineName(m), c.heapNext[m], c.heapSize[m])
	}
	l := c.heapBase[m] + core.LocID(c.heapNext[m])
	c.heapNext[m] += n
	return l, nil
}

// Owner returns the machine owning location l.
func (c *Cluster) Owner(l core.LocID) core.MachineID { return c.topo.Owner(l) }

// NewThread creates a thread bound to machine m. It fails if m is down.
func (c *Cluster) NewThread(m core.MachineID) (*Thread, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.alive[m] {
		return nil, fmt.Errorf("%w: machine %s is down", ErrCrashed, c.topo.MachineName(m))
	}
	return &Thread{c: c, m: m, epoch: c.epoch[m]}, nil
}

// Crash fails machine m: its cache vanishes, volatile memory resets, and
// every thread bound to it dies (subsequent operations return ErrCrashed).
// Under the PSN variant, m-owned lines are poisoned in all other caches.
func (c *Cluster) Crash(m core.MachineID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	core.CrashInPlace(c.st, m, c.cfg.Variant)
	c.followLocked(core.CrashL(m), m, 0)
	c.epoch[m]++
	c.alive[m] = false
	c.bumpStampLocked()
}

// Recover brings machine m back. Its memory retains what the crash
// semantics preserved; new threads may now be created on it.
func (c *Cluster) Recover(m core.MachineID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alive[m] = true
	c.bumpStampLocked()
}

// Partition cuts machine m off the fabric: cross-machine operations
// touching it fail with ErrUnreachable in either direction, and a global
// persistent flush cannot complete anywhere while any machine is
// partitioned. Unlike Crash nothing is lost — caches and memory stay
// intact, the crash epoch does not advance, and existing threads remain
// valid — so Heal restores service without a recovery procedure.
func (c *Cluster) Partition(m core.MachineID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.unreach[m] = true
	c.bumpStampLocked()
}

// Heal reconnects a partitioned machine to the fabric.
func (c *Cluster) Heal(m core.MachineID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.unreach[m] = false
	c.bumpStampLocked()
}

// Degrade sets machine m's device latency multiplier: every operation
// served by m's memory charges factor× the modeled cost. A factor that is
// not a finite number >= 1 — below 1, NaN, ±Inf — reads as 1 (Degrade(m, 1)
// restores full speed): the factor multiplies into the clock, and a clock
// that went NaN or infinite would stay so. Degradation is pure cost — it
// never changes what any operation returns or persists.
func (c *Cluster) Degrade(m core.MachineID, factor float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !(factor >= 1) || math.IsInf(factor, 1) {
		factor = 1
	}
	c.degrade[m] = factor
	c.bumpStampLocked()
}

// DegradeFactor returns machine m's current device latency multiplier.
func (c *Cluster) DegradeFactor(m core.MachineID) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degrade[m]
}

// reachableLocked checks that a thread on issuer can operate on a line of
// owner's: always, when issuer is the owner (a partitioned machine keeps
// serving its own island); otherwise both ends must be connected to the
// fabric.
func (c *Cluster) reachableLocked(issuer, owner core.MachineID) error {
	if owner == issuer {
		return nil
	}
	if c.unreach[issuer] {
		return fmt.Errorf("%w: issuer %s is partitioned", ErrUnreachable, c.topo.MachineName(issuer))
	}
	if c.unreach[owner] {
		return fmt.Errorf("%w: %s (owner of the target line) is partitioned", ErrUnreachable, c.topo.MachineName(owner))
	}
	return nil
}

// fabricWholeLocked checks that no machine is partitioned — the
// precondition of a global persistent flush, whose drain must reach every
// cache in the system.
func (c *Cluster) fabricWholeLocked() error {
	for m := range c.unreach {
		if c.unreach[m] {
			return fmt.Errorf("%w: %s is partitioned; global flush cannot drain it",
				ErrUnreachable, c.topo.MachineName(core.MachineID(m)))
		}
	}
	return nil
}

// Epoch returns machine m's crash epoch: the number of times it has
// crashed. Surviving machines can compare epochs around an operation to
// detect that a peer failed meanwhile — modeling the crash notifications a
// real fabric delivers (CXL link-down and management events). The FliT
// adaptation uses this to make its store-then-flush sequences crash-atomic.
func (c *Cluster) Epoch(m core.MachineID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch[m]
}

// Churn performs n random τ propagation steps, modeling cache-replacement
// pressure.
func (c *Cluster) Churn(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.evictOnceLocked()
	}
}

// evictOnceLocked applies one τ step drawn uniformly from those enabled —
// the k-th of core.TauSteps' (machine, loc) order, found through the
// state's occupancy index instead of by enumerating them — and draws
// nothing when no line is cached.
func (c *Cluster) evictOnceLocked() {
	n := c.st.TauStepCount()
	if n == 0 {
		return
	}
	c.applyTauLocked(c.st.TauStepAt(c.rng.Intn(n)).AsWord())
}

// stepLocked performs the labeled step l, which must be enabled — the
// thread resolved it against the live state, draining first what a flush
// or an LWB load waits for. It is the runtime's only call of
// core.ApplyInPlace: the state steps, the overlay follows, the cost is
// charged and the eviction clock ticks. owner owns l.Loc (for the labels
// of one line; a GPF or a ranged flush passes its issuer); cached says the
// issuer held a copy of the line, semantic or clean, before the primitive
// began.
func (c *Cluster) stepLocked(l core.Label, owner core.MachineID, cached bool) {
	if !core.ApplyInPlace(c.st, l, c.cfg.Variant) {
		panic(fmt.Sprintf("memsim: %v not enabled in %v", l, c.st))
	}
	_, bit := core.LineWord(l.Loc)
	c.followLocked(l, owner, bit)
	c.chargeLocked(l, owner, cached, 1)
	if l.Op != core.OpGPF { // a global flush leaves nothing to evict
		c.maybeEvictLocked(1)
	}
}

// storeLocked performs machine m's stores op of vals to base, base+1, …:
// lines of one occupancy word, all owned by owner, with no eviction draw
// due before the last (Thread.StoreWords cuts a record there). It is the
// runtime's only call of core.ApplyStoreWordInPlace and ends where
// stepLocked over each store in ascending order would: the state steps,
// the overlay follows by the word's mask, each store is charged in turn
// and the eviction clock ticks once per store.
func (c *Cluster) storeLocked(op core.Op, m, owner core.MachineID, base core.LocID, vals []core.Val) {
	w, bit := core.LineWord(base)
	mask := bit * (1<<len(vals) - 1)
	core.ApplyStoreWordInPlace(c.st, op, m, w, mask, vals)
	l, n := core.Label{Op: op, M: m, Loc: base}, uint64(len(vals))
	c.followLocked(l, owner, mask)
	c.chargeLocked(l, owner, false, n)
	c.maybeEvictLocked(n)
}

// followLocked moves the clean-copy overlay the way label l, on the lines
// of l.Loc's occupancy word that mask names — l.Loc's bit for a step of
// one line, a word step's mask for a record's stores — all of owner's,
// moved the state. It is the one table of what each label does to the
// overlay (applyTauLocked is the row of the unlabeled τ step): a new op
// must decide its row here.
func (c *Cluster) followLocked(l core.Label, owner core.MachineID, mask uint64) {
	x := l.Loc
	w, _ := core.LineWord(x)
	switch l.Op {
	case core.OpLoad:
		c.hot.lines[l.M].AddWord(w, mask) // the reader now holds a (possibly clean) copy
		c.hot.warm.Add(l.M, x)
	case core.OpLStore, core.OpLRMW:
		c.onlyCopyLocked(w, mask, l.M) // the store, or the store half, lands in the issuer's cache…
	case core.OpRStore, core.OpRRMW:
		c.onlyCopyLocked(w, mask, owner) // …in the owner's…
	case core.OpMStore, core.OpMRMW, core.OpRFlush:
		c.coolLocked(w, mask) // …or in memory, where a flush of every copy leaves it
	case core.OpLFlush:
		c.hot.lines[l.M].RemoveWord(w, mask)
	case core.OpRFlushRange:
		for w, mask := range core.WordsOf(x, x+core.LocID(l.N)) {
			c.coolLocked(w, mask)
		}
	case core.OpGPF:
		// Each line that drained was cooled by its τ step; clean copies of
		// the other lines stay.
	case core.OpCrash:
		// The crashed machine's copies go. A clean copy equals memory, so
		// where the crash resets memory (a volatile machine's lines) or
		// drops every cached copy (PSN), every copy of a line the machine
		// owns goes too.
		c.hot.lines[l.M].Clear()
		if c.cfg.Variant == core.PSN || c.topo.Mem(l.M) == core.Volatile {
			c.topo.OwnerRuns(0, core.LocID(c.topo.NumLocs()), func(m core.MachineID, lo, hi core.LocID) {
				if m == l.M {
					for j := range c.hot.lines {
						c.hot.lines[j].RemoveRange(lo, hi)
					}
				}
			})
		}
	}
}

// applyTauLocked performs the τ steps of one word step — the only way the
// runtime propagates, a one-bit word for an eviction or an LFlush — and
// maintains the hot-line overlay: horizontal propagation moves the lines
// from the source's overlay row to the owner's; vertical propagation
// (writeback) cools them everywhere.
func (c *Cluster) applyTauLocked(t core.TauWord) {
	core.ApplyTauWordInPlace(c.st, t)
	if t.ToMemory {
		c.coolLocked(t.Word, t.Mask)
		return
	}
	first := t.First()
	owner := c.topo.Owner(first)
	c.hot.lines[t.From].RemoveWord(t.Word, t.Mask)
	c.hot.lines[owner].AddWord(t.Word, t.Mask)
	c.hot.warm.Add(owner, first)
}

// coolLocked invalidates the lines of occupancy word w that mask names in
// every machine's performance cache (writeback, MStore, a flush of every
// copy): in each machine warm names for the word, dropping the machine
// from warm once its word is empty.
func (c *Cluster) coolLocked(w int, mask uint64) {
	at := core.LocID(w << 6)
	for j := range c.hot.warm.Machines(at) {
		lines := &c.hot.lines[j]
		lines.RemoveWord(w, mask)
		if lines.Word(w) == 0 {
			c.hot.warm.Drop(j, at)
		}
	}
}

// onlyCopyLocked records that holder's cache is the only one left with a
// copy of the lines of occupancy word w that mask names (a store gained
// exclusive ownership).
func (c *Cluster) onlyCopyLocked(w int, mask uint64, holder core.MachineID) {
	c.coolLocked(w, mask)
	c.hot.lines[holder].AddWord(w, mask)
	c.hot.warm.Add(holder, core.LocID(w<<6))
}

// hotLocked reports whether machine m holds a (semantic or clean) copy of
// x, for cost accounting.
func (c *Cluster) hotLocked(m core.MachineID, x core.LocID) bool {
	return c.st.Cache(m, x) != core.Bot || c.hot.lines[m].Has(x)
}

// maybeEvictLocked ticks the eviction clock by the n primitives just
// stepped and draws an eviction when the last of them reaches a multiple
// of EvictEvery; a caller stepping n > 1 at once stops at the draw
// (untilDrawLocked), so that no earlier one reaches one.
func (c *Cluster) maybeEvictLocked(n uint64) {
	if c.cfg.EvictEvery <= 0 {
		return
	}
	c.opCount += n
	if c.opCount%uint64(c.cfg.EvictEvery) == 0 {
		c.evictOnceLocked()
	}
}

// untilDrawLocked returns how many primitives may step before the eviction
// clock draws: the draw follows the last of them.
func (c *Cluster) untilDrawLocked() int {
	if c.cfg.EvictEvery <= 0 {
		return math.MaxInt
	}
	every := uint64(c.cfg.EvictEvery)
	return int(every - c.opCount%every)
}

// Stamp returns a fresh monotonically increasing event stamp, used by
// history recording to order invocations and responses.
func (c *Cluster) Stamp() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bumpStampLocked()
}

func (c *Cluster) bumpStampLocked() uint64 {
	c.stamp++
	return c.stamp
}

// NowNS returns the simulated clock in nanoseconds: the value the last
// charged primitive left, read without the cluster lock.
func (c *Cluster) NowNS() float64 { return math.Float64frombits(c.clockBits.Load()) }

// chargeLocked counts n primitives of label l's kind — n > 1 only for a
// record's stores, one per word — and charges their modeled cost. A
// primitive on one line is charged to dev, the line's owner; a degraded
// device multiplies the cost: the operation still succeeds, it just pays a
// realistic penalty for the slow medium.
func (c *Cluster) chargeLocked(l core.Label, dev core.MachineID, cached bool, n uint64) {
	c.opStats[l.Op] += n
	lat := c.cfg.Latency
	if lat == nil {
		return
	}
	switch l.Op {
	case core.OpGPF:
		// The drain completes only when the slowest participating device
		// has written back, so the cost scales with the maximum degradation
		// factor across the cluster — a single slow device gates every
		// fabric-wide flush.
		worst := 1.0
		for _, f := range c.degrade {
			if f > worst {
				worst = f
			}
		}
		c.clockNS += lat.CXL0CostCached(core.OpGPF, false, false) * worst
	case core.OpRFlushRange:
		// Unlike GPF — whose drain involves every cache in the fabric — the
		// cost is per owning device: each device covering part of the range
		// pays one flush command plus its share of per-line media writes,
		// so the total depends on the range, never on the cluster size.
		clear(c.flushLines)
		c.topo.OwnerRuns(l.Loc, l.Loc+core.LocID(l.N), func(owner core.MachineID, lo, hi core.LocID) {
			c.flushLines[owner] += int(hi - lo)
		})
		// Charge devices in machine order: float64 addition is not
		// associative, so the order is part of the simulated clock's value.
		// Each device's portion scales with its own degradation factor — a
		// slow device slows exactly its share of the range, not the whole
		// fabric.
		for m, lines := range c.flushLines {
			if lines > 0 {
				c.clockNS += lat.RFlushRangeCost(lines, core.MachineID(m) == l.M) * c.degrade[m]
			}
		}
	default:
		// One addition per primitive, in order: float64 addition is not
		// associative, so n stores add what n single ones would.
		for range n {
			c.clockNS += lat.CXL0CostCached(l.Op, l.M == dev, cached) * c.degrade[dev]
		}
	}
	c.clockBits.Store(math.Float64bits(c.clockNS))
}

// Stats returns the number of primitives executed so far, per CXL0
// operation. Useful for explaining benchmark results: it shows each
// persistence strategy's primitive mix.
func (c *Cluster) Stats() map[core.Op]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[core.Op]uint64{}
	for op, n := range c.opStats {
		if n > 0 {
			out[core.Op(op)] = n
		}
	}
	return out
}

// Snapshot returns a copy of the current model state, for invariant checks
// and debugging.
func (c *Cluster) Snapshot() *core.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Clone()
}

// CheckInvariant verifies the CXL0 global cache invariant on the live
// state.
func (c *Cluster) CheckInvariant() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.CheckInvariant()
}

// PersistedValue reads location l directly from its owner's memory,
// bypassing caches — what a recovery procedure would find on the physical
// medium. Intended for tests and post-mortem inspection.
func (c *Cluster) PersistedValue(l core.LocID) core.Val {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Mem(l)
}
