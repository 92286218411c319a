// Package faults drives scripted fault campaigns against a kv.DB: a
// Campaign is a deterministic schedule of fault events — correlated
// multi-shard crashes, fabric partitions, per-device degradation — keyed
// to operation indices, and an Engine fires them as a workload advances,
// measuring the outage and recovery windows they cause.
//
// Campaigns generalize uniform crash churn into structured fault
// classes:
//
//   - Uniform: one crash+immediate-recover cycle rotating over shards —
//     how workload Options.CrashEvery runs, so every class and the churn
//     knob share one fault path.
//   - Correlated: several shards crash at the same operation index (one
//     blast radius, as when a rack or fabric switch fails) and recover
//     together later — in schedule order, which is the campaign's order,
//     not the caller's.
//   - Degraded: a device serves at a latency multiple for a window — the
//     slow-device failure mode, which charges realistic costs instead of
//     failing.
//   - Partitioned: a shard becomes unreachable for a window and then
//     heals; nothing is lost, so no recovery follows.
//
// The engine is deterministic: same campaign, same workload, same
// timeline — bit-identical with and without observability attached. See
// docs/faults.md.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"cxl0/internal/kv"
)

// Action is the kind of one campaign event.
type Action int

const (
	// Crash fails the target shards' machines at the same simulated
	// instant — one correlated blast. Shards already down are skipped
	// (counted in Stats.Skipped), never double-injected.
	Crash Action = iota
	// Recover restarts the target shards in the listed order — the
	// campaign's schedule decides recovery order, not the caller. A
	// partitioned target is healed first (partition-heal-then-recover);
	// targets that are not down are skipped, and so is one whose recovery
	// a partition elsewhere in its cluster refuses (group commit's
	// recovery flush is a GPF): it stays down until recovered again or
	// until Engine.Finish.
	Recover
	// Partition cuts the target shards off the fabric. Already
	// partitioned or down targets are skipped.
	Partition
	// Heal reconnects partitioned targets; others are skipped.
	Heal
	// Degrade sets the target devices' latency multiplier to Factor
	// (Factor 1 restores full speed). Never skipped — re-degrading is a
	// factor change, not an injection.
	Degrade
)

var actionNames = [...]string{"crash", "recover", "partition", "heal", "degrade"}

func (a Action) String() string {
	if a >= 0 && int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// MarshalText puts the action on the wire by name (its String). An
// action without a name is an error: no campaign could run it.
func (a Action) MarshalText() ([]byte, error) {
	if a < 0 || int(a) >= len(actionNames) {
		return nil, fmt.Errorf("faults: unknown action %v", a)
	}
	return []byte(actionNames[a]), nil
}

// UnmarshalText reads an action by name.
func (a *Action) UnmarshalText(text []byte) error {
	i := slices.Index(actionNames[:], string(text))
	if i < 0 {
		return fmt.Errorf("faults: unknown action %q", text)
	}
	*a = Action(i)
	return nil
}

// UnmarshalJSON reads an action by name, or by number — campaign JSON's
// older form, which encoding/json alone rejects for a TextUnmarshaler. A
// number is taken as is: one without a name fails the campaign's step
// with "faults: unknown action", as it always has. A null leaves a as it
// was.
func (a *Action) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var n int
	if json.Unmarshal(b, &n) == nil {
		*a = Action(n)
		return nil
	}
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	return a.UnmarshalText([]byte(name))
}

// Event is one scheduled fault: at measured-operation index At, apply
// Action to Shards (global indices). Factor is the Degrade multiplier,
// ignored by other actions.
type Event struct {
	At     int     `json:"at"`
	Action Action  `json:"action"`
	Shards []int   `json:"shards"`
	Factor float64 `json:"factor,omitempty"`
}

// Campaign is a named, deterministic fault schedule. Events fire in
// slice order once their At index is reached; events sharing an At fire
// back to back at the same simulated instant (that is what makes a
// multi-shard Crash event correlated — and distinct events at one At
// stay ordered, so "partition then crash" at the same tick is
// expressible).
type Campaign struct {
	Name   string  `json:"name"`
	Events []Event `json:"events"`
}

// sorted returns the events in firing order: ascending At, schedule
// order within one At (stable).
func (c *Campaign) sorted() []Event {
	evs := make([]Event, len(c.Events))
	copy(evs, c.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Stats is what one campaign run measured.
type Stats struct {
	// Campaign names the schedule that ran.
	Campaign string `json:"campaign"`
	// Injection counters: faults actually applied (skipped injections —
	// a crash into an already-down shard, a partition of a partitioned
	// one, a recovery a partition refuses — count in Skipped instead,
	// never double-applied).
	Crashes    int `json:"crashes"`
	Recoveries int `json:"recoveries"`
	Partitions int `json:"partitions"`
	Heals      int `json:"heals"`
	Degrades   int `json:"degrades"`
	Skipped    int `json:"skipped"`
	// RecordsLost sums the records destroyed by the campaign's crashes,
	// as reported by the recoveries.
	RecordsLost int `json:"records_lost"`
	// RecoveryNS are the simulated costs of the recoveries themselves
	// (the replay/truncate work); OutageNS the full crash-to-recovered
	// windows on the simulated clock; PartitionNS the partition-to-heal
	// windows. Each is in event order.
	RecoveryNS  []float64 `json:"-"`
	OutageNS    []float64 `json:"-"`
	PartitionNS []float64 `json:"-"`
}

// Engine fires one campaign against one DB as a workload advances. Not
// safe for concurrent use; drive it from the workload loop.
type Engine struct {
	db     kv.DB
	events []Event
	next   int

	down   holds // crashed shards, in crash order
	parted holds // partitioned shards, in partition order

	stats Stats
}

// held is one fault the engine holds: its shard, and the simulated
// instant (NowNS) it was injected.
type held struct {
	shard int
	since float64
}

// holds lists the faults of one kind the engine holds, in injection
// order — the order Finish releases them in.
type holds []held

// index returns the position of shard sh in l, or -1.
func (l holds) index(sh int) int {
	return slices.IndexFunc(l, func(h held) bool { return h.shard == sh })
}

// New builds an engine firing c against db. The schedule is copied and
// ordered; the campaign value is not retained.
func New(db kv.DB, c *Campaign) *Engine {
	return &Engine{db: db, events: c.sorted(), stats: Stats{Campaign: c.Name}}
}

// Step fires every not-yet-fired event whose At index is <= op. Call it
// once per measured operation, before executing the operation.
func (e *Engine) Step(op int) error {
	for e.next < len(e.events) && e.events[e.next].At <= op {
		if err := e.fire(e.events[e.next]); err != nil {
			return err
		}
		e.next++
	}
	return nil
}

func (e *Engine) fire(ev Event) error {
	// A schedule is input: hold every shard it names to the DB's range
	// before applying any of them, so a bad event fails whole and by name
	// instead of indexing past the shard table mid-way.
	n := e.db.NumShards()
	for _, sh := range ev.Shards {
		if sh < 0 || sh >= n {
			return fmt.Errorf("faults: event at op %d names shard %d of %d", ev.At, sh, n)
		}
	}
	switch ev.Action {
	case Crash:
		for _, sh := range ev.Shards {
			e.crash(sh)
		}
	case Recover:
		for _, sh := range ev.Shards {
			err := e.recover(sh)
			if errors.Is(err, kv.ErrUnavailable) {
				// A partition elsewhere blocks the flush this recovery
				// needs (a GPF drains every cache of the cluster): the
				// shard stays down until the schedule recovers it again,
				// or until Finish, which heals every partition first.
				e.stats.Skipped++
				continue
			}
			if err != nil {
				return err
			}
		}
	case Partition:
		for _, sh := range ev.Shards {
			e.partition(sh)
		}
	case Heal:
		for _, sh := range ev.Shards {
			e.heal(sh)
		}
	case Degrade:
		for _, sh := range ev.Shards {
			e.db.Degrade(sh, ev.Factor)
			e.stats.Degrades++
		}
	default:
		return fmt.Errorf("faults: unknown action %v at op %d", ev.Action, ev.At)
	}
	return nil
}

func (e *Engine) crash(sh int) {
	if e.down.index(sh) >= 0 {
		e.stats.Skipped++
		return
	}
	e.down = append(e.down, held{sh, e.db.NowNS()})
	e.db.Crash(sh)
	e.stats.Crashes++
}

func (e *Engine) recover(sh int) error {
	i := e.down.index(sh)
	if i < 0 {
		e.stats.Skipped++
		return nil
	}
	// A crashed shard behind a partition heals first: recovery needs the
	// fabric (kv.Store.Recover refuses with ErrUnavailable otherwise).
	if e.parted.index(sh) >= 0 {
		e.heal(sh)
	}
	start := e.db.NowNS()
	stats, err := e.db.Recover(sh)
	if err != nil {
		return fmt.Errorf("faults: recover shard %d: %w", sh, err)
	}
	now := e.db.NowNS()
	e.stats.Recoveries++
	e.stats.RecordsLost += stats.Lost
	e.stats.RecoveryNS = append(e.stats.RecoveryNS, now-start)
	e.stats.OutageNS = append(e.stats.OutageNS, now-e.down[i].since)
	e.down = slices.Delete(e.down, i, i+1)
	return nil
}

func (e *Engine) partition(sh int) {
	if e.parted.index(sh) >= 0 || e.down.index(sh) >= 0 {
		e.stats.Skipped++
		return
	}
	e.parted = append(e.parted, held{sh, e.db.NowNS()})
	e.db.Partition(sh)
	e.stats.Partitions++
}

func (e *Engine) heal(sh int) {
	i := e.parted.index(sh)
	if i < 0 {
		e.stats.Skipped++
		return
	}
	e.db.Heal(sh)
	e.stats.Heals++
	e.stats.PartitionNS = append(e.stats.PartitionNS, e.db.NowNS()-e.parted[i].since)
	e.parted = slices.Delete(e.parted, i, i+1)
}

// Down reports whether the campaign currently holds shard sh down.
func (e *Engine) Down(sh int) bool { return e.down.index(sh) >= 0 }

// Finish drains the campaign: remaining scheduled events fire, then
// every still-partitioned shard heals (in partition order) and every
// still-down shard recovers (in crash order — the campaign schedule's
// order, preserved). A run therefore ends with a healthy service, unless
// a partition the campaign did not inject still refuses a recovery: then
// Finish returns an error that names the shard and wraps
// kv.ErrUnavailable, and the shard stays down.
func (e *Engine) Finish() error {
	if err := e.Step(math.MaxInt); err != nil {
		return err
	}
	for len(e.parted) > 0 {
		e.heal(e.parted[0].shard)
	}
	for len(e.down) > 0 {
		if err := e.recover(e.down[0].shard); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns what the campaign has measured so far.
func (e *Engine) Stats() Stats { return e.stats }

// Denial is how a fault denied an operation: docs/faults.md's error
// taxonomy, as the one classification every client counts through.
type Denial int

const (
	// NotDenied: the operation succeeded, or failed for a reason no
	// injected fault explains.
	NotDenied Denial = iota
	// Partial: a fan-out read skipped partitioned shards and served the
	// rest (*kv.PartialResultError).
	Partial
	// Unavailable: a fabric partition refused the operation
	// (kv.ErrUnavailable); nothing is lost.
	Unavailable
	// Down: the operation hit a crashed shard (kv.ErrShardDown).
	Down
)

// DeniedBy classifies an operation's error. Partial results come first:
// they unwrap to kv.ErrUnavailable, but did serve the reachable shards.
func DeniedBy(err error) Denial {
	var partial *kv.PartialResultError
	switch {
	case errors.As(err, &partial):
		return Partial
	case errors.Is(err, kv.ErrUnavailable):
		return Unavailable
	case errors.Is(err, kv.ErrShardDown):
		return Down
	}
	return NotDenied
}

// PercentileNS returns the p-th percentile (nearest-rank, p in [0,100])
// of xs, which need not be sorted. Returns 0 for an empty slice. It is
// the element sort.Float64s would put at the rank, found by selection on
// a copy: xs is not reordered.
func PercentileNS(xs []float64, p float64) float64 {
	return Percentiles([][]float64{xs}, p)[0]
}

// Percentiles returns PercentileNS(xs, p) for each p of ps, in order,
// where xs is the concatenation of parts. It copies each part once, into
// one buffer: selection only reorders the buffer, so each rank is
// selected on it as on xs itself.
func Percentiles(parts [][]float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	buf := slices.Concat(parts...)
	if len(buf) == 0 {
		return out
	}
	for i, p := range ps {
		rank := int(math.Ceil(p / 100 * float64(len(buf))))
		out[i] = selectRank(buf, min(max(rank, 1), len(buf))-1)
	}
	return out
}

// selectRank returns the element sort.Float64s would put at index k of
// xs — NaNs first, then ascending — reordering xs. It is Hoare's
// quickselect with a median-of-three pivot over the NaN-free tail, and
// sorts what is left of the range if 64 partitions did not finish it.
func selectRank(xs []float64, k int) float64 {
	lo := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[lo] = xs[lo], x
			lo++
		}
	}
	if k < lo {
		return xs[k]
	}
	hi := len(xs) - 1
	for round := 0; lo < hi; round++ {
		if round == 64 {
			sort.Float64s(xs[lo : hi+1])
			break
		}
		m := lo + (hi-lo)/2
		if xs[m] < xs[lo] {
			xs[m], xs[lo] = xs[lo], xs[m]
		}
		if xs[hi] < xs[m] {
			xs[hi], xs[m] = xs[m], xs[hi]
			if xs[m] < xs[lo] {
				xs[m], xs[lo] = xs[lo], xs[m]
			}
		}
		pivot := xs[m]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= pivot <= xs[i..hi], and every element between
		// equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// window is one campaign class's fault window, opened every `every`
// ops on blast consecutive shards (clamped to the fleet; the first shard
// rotates round-robin, so repeated windows spread over the service) and
// closed on the same shards at once or, if half, half a period later.
// Factor is the opening Degrade's multiplier; a closing Degrade restores
// factor 1.
type window struct {
	open, close Action
	blast       int
	factor      float64
	half        bool
}

// windows is the table of generated classes.
var windows = map[string]window{
	// none is the fault-free baseline: no window opens.
	"none": {},
	// uniform is crash churn as a campaign, and how workload
	// Options.CrashEvery runs.
	"uniform":     {open: Crash, close: Recover, blast: 1},
	"correlated":  {open: Crash, close: Recover, blast: 2, half: true},
	"degraded":    {open: Degrade, close: Degrade, blast: 1, factor: 8, half: true},
	"partitioned": {open: Partition, close: Heal, blast: 1, half: true},
}

// ForClass builds the named campaign class over ops operations and
// shards shards (global indices), one fault window per `every` ops:
// "none" (an empty baseline schedule), "uniform", "correlated" (blast
// of 2), "degraded" (8× device latency) and "partitioned". It is the one
// way to a generated schedule, deterministic in its arguments, and it
// rejects a shape with no shard to target or no period to step by.
func ForClass(name string, ops, shards, every int) (*Campaign, error) {
	if shards < 1 || every < 1 {
		return nil, fmt.Errorf("faults: campaign over %d shard(s) every %d op(s): both must be positive", shards, every)
	}
	w, ok := windows[name]
	if !ok {
		return nil, fmt.Errorf("faults: unknown campaign class %q (want none, uniform, correlated, degraded or partitioned)", name)
	}
	c := &Campaign{Name: name}
	for s, at := 0, every; w.blast > 0 && at < ops; s, at = s+1, at+every {
		targets := make([]int, min(w.blast, shards))
		for i := range targets {
			targets[i] = (s + i) % shards
		}
		shut := Event{At: at, Action: w.close, Shards: targets}
		if w.half {
			shut.At += every / 2
		}
		if w.close == Degrade {
			shut.Factor = 1
		}
		c.Events = append(c.Events, Event{At: at, Action: w.open, Shards: targets, Factor: w.factor}, shut)
	}
	return c, nil
}
