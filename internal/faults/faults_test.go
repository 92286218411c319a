package faults_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"cxl0/internal/core"
	"cxl0/internal/faults"
	"cxl0/internal/kv"
	"cxl0/internal/obs"
	"cxl0/internal/pool"
)

func open(t *testing.T, shards int) *kv.Store {
	t.Helper()
	st, err := kv.Open(kv.Config{Shards: shards, Strategy: kv.GroupCommit, Batch: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tolerate is the workload loop's stance: a fault-window denial is
// expected, anything else is a test failure.
func tolerate(t *testing.T, err error) {
	t.Helper()
	if err != nil && faults.DeniedBy(err) == faults.NotDenied {
		t.Fatalf("unexpected op error: %v", err)
	}
}

// TestDeniedBy holds the classification to docs/faults.md's error
// taxonomy, on the errors a pooled service really returns: a partition
// refuses a point op and cuts a scan short, a crash fails both, and
// errors no fault explains are not denials.
func TestDeniedBy(t *testing.T) {
	r, err := pool.Open(pool.Config{Clusters: 2, Store: kv.Config{Shards: 2, Strategy: kv.RangedCommit, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for k := core.Val(0); k < 40; k++ {
		if _, err := r.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() error { _, err := r.Scan(0, 40, 0); return err }
	get := func(k core.Val) error { _, _, err := r.Get(k); return err }
	type probe struct {
		name string
		err  error
		want faults.Denial
	}
	_, badKey := r.Put(1, 0)
	probes := []probe{
		{"nil", nil, faults.NotDenied},
		{"bad key", badKey, faults.NotDenied},
		{"front down", fmt.Errorf("pool: cluster 1: %w", kv.ErrFrontDown), faults.NotDenied},
	}
	// The first key a partition of shard 3 refuses lives there.
	r.Partition(3)
	victim := core.Val(0)
	for ; get(victim) == nil; victim++ {
		if victim == 40 {
			t.Fatal("no key lives on partitioned shard 3")
		}
	}
	probes = append(probes, probe{"partitioned get", get(victim), faults.Unavailable}, probe{"partitioned scan", scan(), faults.Partial})
	r.Heal(3)
	r.Crash(3)
	probes = append(probes, probe{"crashed get", get(victim), faults.Down}, probe{"crashed scan", scan(), faults.Down})
	for _, p := range probes {
		if got := faults.DeniedBy(p.err); got != p.want {
			t.Errorf("%s: DeniedBy(%v) = %d, want %d", p.name, p.err, got, p.want)
		}
	}
}

func TestForClassShapes(t *testing.T) {
	for _, class := range []string{"none", "uniform", "correlated", "degraded", "partitioned"} {
		c, err := faults.ForClass(class, 400, 4, 100)
		if err != nil {
			t.Fatalf("ForClass(%s): %v", class, err)
		}
		if c.Name != class {
			t.Fatalf("ForClass(%s) named %q", class, c.Name)
		}
		if class == "none" {
			if len(c.Events) != 0 {
				t.Fatalf("none campaign has %d events", len(c.Events))
			}
			continue
		}
		// Windows at 100, 200, 300: two events each (inject + restore).
		if len(c.Events) != 6 {
			t.Fatalf("%s campaign has %d events, want 6", class, len(c.Events))
		}
	}
	if _, err := faults.ForClass("meteor", 400, 4, 100); err == nil {
		t.Fatal("unknown class accepted")
	}
	// Blast clamps to the shard count on tiny fleets.
	c, err := faults.ForClass("correlated", 200, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range c.Events {
		if len(ev.Shards) != 1 {
			t.Fatalf("1-shard correlated blast targets %v", ev.Shards)
		}
	}
}

// TestForClassRejectsBadShapes: with no shard to target a generator would
// divide by zero or script empty blasts, and with no positive period its
// window loop would never end. ForClass refuses both, for every class.
func TestForClassRejectsBadShapes(t *testing.T) {
	for _, shape := range []struct{ shards, every int }{{0, 10}, {4, 0}, {4, -1}} {
		for _, class := range []string{"none", "uniform", "correlated", "degraded", "partitioned"} {
			if c, err := faults.ForClass(class, 100, shape.shards, shape.every); err == nil {
				t.Errorf("ForClass(%s, 100, %d, %d) = %d events, want an error", class, shape.shards, shape.every, len(c.Events))
			}
		}
	}
}

func TestCorrelatedBlastCrashesTogether(t *testing.T) {
	st := open(t, 4)
	c, err := faults.ForClass("correlated", 200, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	eng := faults.New(st, c)
	sawDown := false
	for i := 0; i < 200; i++ {
		if err := eng.Step(i); err != nil {
			t.Fatal(err)
		}
		if i == 50 {
			// The whole blast radius fell at one instant.
			if !eng.Down(0) || !eng.Down(1) {
				t.Fatalf("blast {0,1} not down at op 50: %v %v", eng.Down(0), eng.Down(1))
			}
			h := st.Health()
			if !h[0].Down || !h[1].Down || h[2].Down || h[3].Down {
				t.Fatalf("health disagrees with blast: %+v", h)
			}
			sawDown = true
		}
		if i == 80 && (eng.Down(0) || eng.Down(1)) {
			t.Fatal("blast not recovered half a period later")
		}
		_, err := st.Put(core.Val(i%40), core.Val(i+1))
		tolerate(t, err)
	}
	if !sawDown {
		t.Fatal("campaign never fired")
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	// Windows at 50, 100, 150 × blast 2.
	if s.Crashes != 6 || s.Recoveries != 6 {
		t.Fatalf("crashes=%d recoveries=%d, want 6/6", s.Crashes, s.Recoveries)
	}
	if len(s.OutageNS) != 6 || len(s.RecoveryNS) != 6 {
		t.Fatalf("outage/recovery samples %d/%d, want 6/6", len(s.OutageNS), len(s.RecoveryNS))
	}
	for _, o := range s.OutageNS {
		if o <= 0 {
			t.Fatalf("non-positive outage window %g", o)
		}
	}
}

func TestPartitionDeniesButLosesNothing(t *testing.T) {
	st := open(t, 2)
	for k := 0; k < 20; k++ {
		if _, err := st.Put(core.Val(k), core.Val(k+100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	eng := faults.New(st, &faults.Campaign{Name: "p", Events: []faults.Event{
		{At: 1, Action: faults.Partition, Shards: []int{0}},
		{At: 2, Action: faults.Heal, Shards: []int{0}},
	}})
	if err := eng.Step(1); err != nil {
		t.Fatal(err)
	}
	denied := 0
	for k := 0; k < 20; k++ {
		_, _, err := st.Get(core.Val(k))
		if err == nil {
			continue
		}
		if !errors.Is(err, kv.ErrUnavailable) {
			t.Fatalf("partitioned get failed with %v, want ErrUnavailable", err)
		}
		if errors.Is(err, kv.ErrShardDown) {
			t.Fatal("partition must not masquerade as a crash")
		}
		denied++
	}
	if denied == 0 {
		t.Fatal("no op was denied by the partition")
	}
	if err := eng.Step(2); err != nil {
		t.Fatal(err)
	}
	// Heal is instant and lossless: every key reads back, no recovery.
	for k := 0; k < 20; k++ {
		v, ok, err := st.Get(core.Val(k))
		if err != nil || !ok || v != core.Val(k+100) {
			t.Fatalf("post-heal get(%d) = %v %v %v", k, v, ok, err)
		}
	}
	s := eng.Stats()
	if s.Partitions != 1 || s.Heals != 1 || s.Recoveries != 0 || s.RecordsLost != 0 {
		t.Fatalf("partition stats %+v", s)
	}
	if len(s.PartitionNS) != 1 || s.PartitionNS[0] <= 0 {
		t.Fatalf("partition window samples %v", s.PartitionNS)
	}
}

func TestDegradeIsCostOnly(t *testing.T) {
	st := open(t, 2)
	eng := faults.New(st, &faults.Campaign{Name: "d", Events: []faults.Event{
		{At: 1, Action: faults.Degrade, Shards: []int{1}, Factor: 8},
		{At: 2, Action: faults.Degrade, Shards: []int{1}, Factor: 1},
	}})
	if err := eng.Step(1); err != nil {
		t.Fatal(err)
	}
	if f := st.Health()[1].DegradeFactor; f != 8 {
		t.Fatalf("degrade factor %g, want 8", f)
	}
	// Degraded ops succeed — slow is not down.
	for k := 0; k < 10; k++ {
		if _, err := st.Put(core.Val(k), core.Val(k+1)); err != nil {
			t.Fatalf("degraded put failed: %v", err)
		}
	}
	if err := eng.Step(2); err != nil {
		t.Fatal(err)
	}
	if f := st.Health()[1].DegradeFactor; f != 1 {
		t.Fatalf("restore left factor %g", f)
	}
	if s := eng.Stats(); s.Degrades != 2 || s.Crashes != 0 || s.Skipped != 0 {
		t.Fatalf("degrade stats %+v", s)
	}
}

func TestSkippedInjectionsNeverDoubleApply(t *testing.T) {
	st := open(t, 2)
	eng := faults.New(st, &faults.Campaign{Name: "dup", Events: []faults.Event{
		{At: 1, Action: faults.Crash, Shards: []int{0}},
		{At: 2, Action: faults.Crash, Shards: []int{0}}, // down: skip
		{At: 3, Action: faults.Partition, Shards: []int{1}},
		{At: 4, Action: faults.Partition, Shards: []int{1}}, // partitioned: skip
		{At: 5, Action: faults.Partition, Shards: []int{0}}, // down: skip
		{At: 6, Action: faults.Heal, Shards: []int{0}},      // not partitioned: skip
		{At: 7, Action: faults.Recover, Shards: []int{1}},   // not down: skip
	}})
	if err := eng.Step(10); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Crashes != 1 || s.Partitions != 1 || s.Skipped != 5 {
		t.Fatalf("crashes=%d partitions=%d skipped=%d, want 1/1/5", s.Crashes, s.Partitions, s.Skipped)
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	for i, h := range st.Health() {
		if h.Down || h.Partitioned {
			t.Fatalf("shard %d still impaired after Finish: %+v", i, h)
		}
	}
}

// TestEventShardOutOfRange: a schedule naming a shard the DB does not
// have fails by name — for every action, on a single store and on a
// pooled router (whose global index space is clusters × shards) — and
// applies none of the event's shards, in-range ones included.
func TestEventShardOutOfRange(t *testing.T) {
	router, err := pool.Open(pool.Config{Clusters: 2, Store: kv.Config{Shards: 2, Strategy: kv.GroupCommit, Batch: 8, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	dbs := []struct {
		name string
		db   kv.DB
	}{{"store", open(t, 4)}, {"router", router}}
	for _, d := range dbs {
		for _, action := range []faults.Action{faults.Crash, faults.Recover, faults.Partition, faults.Heal, faults.Degrade} {
			for _, bad := range []int{99, 4, -1} {
				eng := faults.New(d.db, &faults.Campaign{Name: "oob", Events: []faults.Event{
					{At: 3, Action: action, Shards: []int{1, bad}, Factor: 2},
				}})
				err := eng.Step(3)
				want := fmt.Sprintf("faults: event at op 3 names shard %d of 4", bad)
				if err == nil || err.Error() != want {
					t.Fatalf("%s: %v of shard %d: err = %v, want %q", d.name, action, bad, err, want)
				}
				if s := eng.Stats(); !reflect.DeepEqual(s, faults.Stats{Campaign: "oob"}) {
					t.Fatalf("%s: %v of shard %d applied part of the event: %+v", d.name, action, bad, s)
				}
			}
		}
		for i, h := range d.db.Health() {
			if h.Down || h.Partitioned || h.DegradeFactor > 1 {
				t.Fatalf("%s: shard %d impaired by a rejected event: %+v", d.name, i, h)
			}
		}
	}
}

func TestRecoverHealsPartitionFirst(t *testing.T) {
	st := open(t, 4)
	eng := faults.New(st, &faults.Campaign{Name: "ph", Events: []faults.Event{
		// Same tick, schedule order: the shard is cut off, then its
		// machine dies behind the partition.
		{At: 1, Action: faults.Partition, Shards: []int{2}},
		{At: 1, Action: faults.Crash, Shards: []int{2}},
		{At: 2, Action: faults.Recover, Shards: []int{2}},
	}})
	if err := eng.Step(1); err != nil {
		t.Fatal(err)
	}
	h := st.Health()[2]
	if !h.Down || !h.Partitioned {
		t.Fatalf("shard 2 should be down AND partitioned: %+v", h)
	}
	// Recovery needs the fabric: the engine heals before recovering.
	if err := eng.Step(2); err != nil {
		t.Fatal(err)
	}
	h = st.Health()[2]
	if h.Down || h.Partitioned {
		t.Fatalf("shard 2 still impaired after recover: %+v", h)
	}
	s := eng.Stats()
	if s.Heals != 1 || s.Recoveries != 1 || s.Crashes != 1 || s.Partitions != 1 {
		t.Fatalf("heal-then-recover stats %+v", s)
	}
}

// TestRecoverBlockedByPartitionWaits: under group commit a recovery
// that must re-persist a surviving pending tail issues a GPF, which a
// partition anywhere in the cluster blocks. The engine keeps the shard
// down instead of failing the run, and Finish — which heals every
// partition first — recovers it with no write lost or garbled.
func TestRecoverBlockedByPartitionWaits(t *testing.T) {
	st := open(t, 2)
	const n = 12
	for k := core.Val(0); k < n; k++ {
		if _, err := st.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
	}
	eng := faults.New(st, &faults.Campaign{Name: "blocked", Events: []faults.Event{
		{At: 1, Action: faults.Crash, Shards: []int{1}},
		{At: 1, Action: faults.Partition, Shards: []int{0}},
		{At: 2, Action: faults.Recover, Shards: []int{1}},
	}})
	for op := 1; op <= 2; op++ {
		if err := eng.Step(op); err != nil {
			t.Fatalf("step %d: %v", op, err)
		}
	}
	if !eng.Down(1) || !st.Health()[1].Down {
		t.Fatalf("shard 1 recovered behind a partition that blocks its flush: %+v", st.Health())
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, h := range st.Health() {
		if h.Down || h.Partitioned {
			t.Fatalf("service not healthy after Finish: %+v", st.Health())
		}
	}
	if s := eng.Stats(); s.Recoveries != 1 || s.Heals != 1 {
		t.Fatalf("stats %+v, want one recovery and one heal", s)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	for k := core.Val(0); k < n; k++ {
		if v, ok, err := st.Get(k); err != nil || (ok && v != 100+k) {
			t.Fatalf("get %d = (%d, %v, %v), want %d or absent", k, v, ok, err, 100+k)
		}
	}
}

// TestFinishFailsOnForeignPartition: a partition the campaign did not
// inject is not the engine's to heal, and under group commit it refuses
// the recovery GPF of every shard in the cluster. Finish must then fail,
// naming the shard it cannot bring back, instead of retrying forever.
func TestFinishFailsOnForeignPartition(t *testing.T) {
	st, err := kv.Open(kv.Config{Shards: 2, Strategy: kv.GroupCommit, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := core.Val(0); k < 20; k++ {
		if _, err := st.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
	}
	st.Partition(1)
	eng := faults.New(st, &faults.Campaign{Name: "foreign", Events: []faults.Event{
		{At: 0, Action: faults.Crash, Shards: []int{0}},
	}})
	if err := eng.Step(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Finish() }()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Finish did not return with a foreign partition blocking recovery")
	}
	if !errors.Is(err, kv.ErrUnavailable) || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("Finish = %v, want an ErrUnavailable naming shard 0", err)
	}
	if !eng.Down(0) {
		t.Fatal("engine stopped holding the unrecovered shard down")
	}
}

// TestObservedCampaignBitIdentical is the acceptance invariant: running
// the same campaign with an observability recorder attached must leave
// the simulated clock, the data, and the campaign measurements
// bit-identical to the unobserved run.
func TestObservedCampaignBitIdentical(t *testing.T) {
	run := func(observe bool) (float64, faults.Stats, []core.Val) {
		st := open(t, 4)
		if observe {
			st.Observe(obs.NewRecorder(obs.NewBus(obs.DefaultBusSize), obs.NewStats()))
		}
		c, err := faults.ForClass("correlated", 240, 4, 60)
		if err != nil {
			t.Fatal(err)
		}
		eng := faults.New(st, c)
		for i := 0; i < 240; i++ {
			if err := eng.Step(i); err != nil {
				t.Fatal(err)
			}
			_, err := st.Put(core.Val(i%48), core.Val(i+1))
			tolerate(t, err)
		}
		if err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		var vals []core.Val
		for k := 0; k < 48; k++ {
			v, _, err := st.Get(core.Val(k))
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		return st.NowNS(), eng.Stats(), vals
	}
	nowA, statsA, valsA := run(false)
	nowB, statsB, valsB := run(true)
	if nowA != nowB {
		t.Fatalf("observed clock diverged: %g vs %g", nowA, nowB)
	}
	if !reflect.DeepEqual(statsA, statsB) {
		t.Fatalf("observed campaign stats diverged:\n%+v\n%+v", statsA, statsB)
	}
	if !reflect.DeepEqual(valsA, valsB) {
		t.Fatal("observed data diverged")
	}
}

func TestPercentileNS(t *testing.T) {
	xs := []float64{30, 10, 20, 40}
	if p := faults.PercentileNS(xs, 50); p != 20 {
		t.Fatalf("p50 = %g, want 20", p)
	}
	if p := faults.PercentileNS(xs, 95); p != 40 {
		t.Fatalf("p95 = %g, want 40", p)
	}
	if p := faults.PercentileNS(nil, 95); p != 0 {
		t.Fatalf("empty p95 = %g, want 0", p)
	}
	if got := xs[0]; got != 30 {
		t.Fatal("PercentileNS mutated its input")
	}
}

// TestPercentileNSMatchesSort holds PercentileNS's selection to the
// definition it replaced — sort a copy with sort.Float64s, take the
// nearest rank — on random, heavily tied, ±Inf- and NaN-laden, sorted
// and reversed inputs of many lengths, at ranks from below 0 to above
// 100. Equal results are equal values (±0 tie) or both NaN.
func TestPercentileNSMatchesSort(t *testing.T) {
	bySort := func(xs []float64, p float64) float64 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		rank := min(max(int(math.Ceil(p/100*float64(len(sorted)))), 1), len(sorted))
		return sorted[rank-1]
	}
	rng := rand.New(rand.NewSource(1))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	gens := []struct {
		name string
		gen  func(i int) float64
	}{
		{"random", func(int) float64 { return rng.NormFloat64() * 1e3 }},
		{"tied", func(int) float64 { return float64(rng.Intn(3)) }},
		{"special", func(int) float64 { return special[rng.Intn(len(special))] }},
		{"mixed", func(int) float64 {
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return rng.ExpFloat64()
		}},
		{"sorted", func(i int) float64 { return float64(i) }},
		{"reversed", func(i int) float64 { return float64(-i) }},
		{"equal", func(int) float64 { return 7 }},
	}
	ps := []float64{-5, 0, 0.1, 1, 25, 50, 95, 99, 99.9, 100, 150}
	for _, g := range gens {
		name, gen := g.name, g.gen
		for _, n := range []int{1, 2, 3, 5, 8, 13, 64, 100, 1000, 5000} {
			for rep := 0; rep < 3; rep++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = gen(i)
				}
				before := append([]float64(nil), xs...)
				check := func(how string, p, got float64) {
					if want := bySort(xs, p); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s n=%d p=%g %s: got %g, sort gives %g", name, n, p, how, got, want)
					}
				}
				for _, p := range ps {
					check("alone", p, faults.PercentileNS(xs, p))
				}
				// Every rank of one copy, in the order given and reversed:
				// each selection starts from the last one's reordering. xs
				// whole and xs in two parts are one series.
				rev := slices.Clone(ps)
				slices.Reverse(rev)
				for _, order := range [][]float64{ps, rev} {
					for _, parts := range [][][]float64{{xs}, {xs[:n/3], xs[n/3:]}} {
						for i, got := range faults.Percentiles(parts, order...) {
							check("of many", order[i], got)
						}
					}
				}
				for i := range xs {
					if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
						t.Fatalf("%s n=%d: PercentileNS or Percentiles reordered its input", name, n)
					}
				}
			}
		}
	}
}

// TestActionText round-trips every action through its text and JSON
// forms: the wire name is String, a campaign written with names decodes
// to the same events, and the older numeric form still decodes.
func TestActionText(t *testing.T) {
	for a := faults.Crash; a <= faults.Degrade; a++ {
		text, err := a.MarshalText()
		if err != nil || string(text) != a.String() {
			t.Fatalf("%v.MarshalText() = %q, %v; want %q", a, text, err, a.String())
		}
		var back faults.Action
		if err := back.UnmarshalText(text); err != nil || back != a {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, a)
		}
		ev := faults.Event{At: 7, Action: a, Shards: []int{1}, Factor: 2}
		blob, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`"action":%q`, a.String()); !strings.Contains(string(blob), want) {
			t.Fatalf("event JSON %s does not carry %s", blob, want)
		}
		for _, form := range []string{string(blob), fmt.Sprintf(`{"at":7,"action":%d,"shards":[1],"factor":2}`, int(a))} {
			var got faults.Event
			if err := json.Unmarshal([]byte(form), &got); err != nil || !reflect.DeepEqual(got, ev) {
				t.Fatalf("decoding %s = %+v, %v; want %+v", form, got, err, ev)
			}
		}
	}
	if _, err := faults.Action(5).MarshalText(); err == nil {
		t.Error("an action without a name marshals")
	}
	var a faults.Action
	if err := json.Unmarshal([]byte(`"explode"`), &a); err == nil {
		t.Error(`"explode" decodes as an action`)
	}
	// A number without a name decodes as is and fails at its step, as it
	// did before actions had names.
	if err := json.Unmarshal([]byte(`9`), &a); err != nil || a != 9 {
		t.Errorf("9 decodes as %v, %v; want Action(9)", a, err)
	}
}
