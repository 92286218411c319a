package kvtest

import (
	"errors"
	"slices"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/kv/kvspec"
)

// checked is a DB whose every write, read, Apply, Sync and recovery is
// held to kvspec. It adopts a write as its Ack names it (the DB hides
// placement, so a key's shard is the one its writes were acknowledged
// by, or, for a key never written, a twin's), every shard's watermark
// from Metrics().PerShardAcked after each call that can move one and
// leaves every shard up, whatever its outcome (a refused Sync may have committed the shards
// before the one that refused, and a MultiGet's window opens at the
// spec's watermarks), a recovery — of a shard, or every shard's
// re-attachment by RecoverFront — as the cut its
// RecoveryStats.Recovered names, and a Compact as the folds its stats
// name. The spec has one store per cluster (Router.NumClusters, or 1), so
// an Apply over a partition is held to per-store legs. While the front
// end is down every call must deny with ErrFrontDown. A read while a
// shard is down fails whole with ErrShardDown, which the suites check
// themselves. Batches go through apply, which knows their ops. The spec
// has no rule for a write that a GPF refuses behind a partition
// elsewhere in its cluster (GPFEach, GroupCommit), and cannot follow a
// bucket move: a suite that rebalances does so last and reads the bare
// DB after it.
type checked struct {
	kv.DB
	t     *testing.T
	spec  *kvspec.DB
	home  map[core.Val]int
	down  []bool
	front bool // the front end is down
	// twin, opened by the first key the spec routes before it is
	// written, is a second DB of the same factory and config: it places a
	// key as this DB did before any rebalance.
	f    Factory
	cfg  kv.Config
	twin kv.DB
}

// check opens a checked DB over f's DB for cfg.
func check(t *testing.T, f Factory, cfg kv.Config) *checked {
	c := &checked{DB: f(t, cfg), t: t, home: map[core.Val]int{}, f: f, cfg: cfg}
	c.down = make([]bool, c.NumShards())
	stores := 1
	if p, ok := c.DB.(interface{ NumClusters() int }); ok {
		stores = p.NumClusters()
	}
	c.spec = kvspec.New(stores, c.NumShards()/stores, cfg.PipelineDepth > 1 && cfg.Strategy.Batched(), c.place)
	return c
}

// adopt moves the spec's watermarks to the DB's, a down shard's aside.
func (c *checked) adopt() {
	c.t.Helper()
	marks := slices.Clone(c.Metrics().PerShardAcked)
	for i, down := range c.down {
		if down {
			marks[i] = c.spec.Shards[i].Acked
		}
	}
	if err := c.spec.Ack(marks); err != nil {
		c.t.Fatal(err)
	}
}

// place returns key's shard: the one its writes were acknowledged by,
// or, for a key never written, the one a Delete on the twin is.
func (c *checked) place(key core.Val) int {
	c.t.Helper()
	if sh, ok := c.home[key]; ok {
		return sh
	}
	if c.twin == nil {
		c.twin = c.f(c.t, c.cfg)
	}
	ack, err := c.twin.Delete(key)
	if err != nil {
		c.t.Fatalf("placing key %d: %v", key, err)
	}
	c.home[key] = ack.Shard
	return ack.Shard
}

// frontDenied reports whether the front end is down, and holds err, then,
// to ErrFrontDown.
func (c *checked) frontDenied(op string, err error) bool {
	c.t.Helper()
	if c.front && !errors.Is(err, kv.ErrFrontDown) {
		c.t.Fatalf("%v: %s with the front end down failed with %v, want ErrFrontDown", kvspec.ErrOffSpec, op, err)
	}
	return c.front
}

// excused reports whether err is a denial the DB's faults explain:
// ErrShardDown with a shard down, ErrUnavailable with one partitioned.
func (c *checked) excused(err error) bool {
	return errors.Is(err, kv.ErrShardDown) && !c.up() || errors.Is(err, kv.ErrUnavailable) && c.parted()
}

func (c *checked) Put(key, val core.Val) (kv.Ack, error) {
	ack, err := c.DB.Put(key, val)
	return ack, c.wrote(key, val, ack, err)
}

func (c *checked) Delete(key core.Val) (kv.Ack, error) {
	ack, err := c.DB.Delete(key)
	return ack, c.wrote(key, 0, ack, err)
}

// wrote adopts a write. One the DB refuses as unavailable must be to a
// partitioned shard, and one to a partitioned shard must be refused so,
// before anything moves. An acknowledged write's record is the next of
// the shard its Ack names, and it is durable iff the watermark covers
// it. A write to slot 0 of a shard with records ran an auto-compaction
// (Config.CompactAtFill) first, which folded them.
func (c *checked) wrote(key, val core.Val, ack kv.Ack, err error) error {
	c.t.Helper()
	if c.frontDenied("write", err) {
		return err
	}
	if err != nil {
		if c.spec.Part[c.place(key)] != errors.Is(err, kv.ErrUnavailable) {
			c.t.Fatalf("%v: write of key %d failed with %v (partitioned: %v)", kvspec.ErrOffSpec, key, err, c.spec.Part)
		}
		c.adopt()
		return err
	}
	if sh, placed := c.home[key]; placed && sh != ack.Shard || c.spec.Part[ack.Shard] {
		c.t.Fatalf("%v: write of key %d acked as %+v; its shard is %d (partitioned: %v)", kvspec.ErrOffSpec, key, ack, sh, c.spec.Part)
	}
	c.home[key] = ack.Shard
	s := c.spec.Shards[ack.Shard]
	if ack.Seq == 0 && len(s.Log) > 0 {
		s.Compact()
	}
	s.Write(key, val)
	c.adopt()
	if ack.Seq != len(s.Log)-1 || ack.Durable != (s.Acked > ack.Seq) {
		c.t.Fatalf("%v: write of key %d acked as %+v; the spec's slot is %d, its watermark %d", kvspec.ErrOffSpec, key, ack, len(s.Log)-1, s.Acked)
	}
	return nil
}

// apply applies ops as one Batch, which this DB sees alone. A batch the
// spec stops at a partitioned shard must fail with ErrUnavailable, the
// ops before the stop written; any other must be acknowledged durable on
// the spec's last record.
func (c *checked) apply(ops ...kvspec.Rec) (kv.Ack, error) {
	c.t.Helper()
	b := new(kv.Batch)
	for _, op := range ops {
		if op.Val == 0 {
			b.Delete(op.Key)
		} else {
			b.Put(op.Key, op.Val)
		}
	}
	ack, err := c.DB.Apply(b)
	if c.frontDenied("apply", err) || len(ops) == 0 {
		return ack, err
	}
	whole := c.spec.Apply(ops)
	c.adopt()
	sh := c.place(ops[len(ops)-1].Key)
	if whole && (err != nil || !ack.Durable || ack.Shard != sh || ack.Seq != len(c.spec.Shards[sh].Log)-1) ||
		!whole && !errors.Is(err, kv.ErrUnavailable) {
		c.t.Fatalf("%v: Apply(%v) = %+v, %v; the spec's last record is shard %d slot %d, applied whole: %v (partitioned: %v)",
			kvspec.ErrOffSpec, ops, ack, err, sh, len(c.spec.Shards[sh].Log)-1, whole, c.spec.Part)
	}
	return ack, err
}

// Apply is not checked: a Batch hides its ops.
func (c *checked) Apply(*kv.Batch) (kv.Ack, error) {
	c.t.Fatal("kvtest: apply a checked DB's batches through apply")
	return kv.Ack{}, nil
}

// up reports whether no shard is down, so that a read must be checked.
func (c *checked) up() bool { return !slices.Contains(c.down, true) }

// parted reports whether a shard is partitioned.
func (c *checked) parted() bool { return slices.Contains(c.spec.Part, true) }

func (c *checked) Get(key core.Val) (core.Val, bool, error) {
	c.t.Helper()
	v, ok, err := c.DB.Get(key)
	if c.frontDenied("get", err) || !c.up() {
		return v, ok, err
	}
	c.adopt()
	want, p := c.spec.Get(key)
	if p.Missing > 0 && (!errors.Is(err, kv.ErrUnavailable) || errors.Is(err, kv.ErrShardDown)) ||
		p.Missing == 0 && (err != nil || (kvspec.Lookup{Key: key, Val: v, Found: ok}) != want) {
		c.t.Fatalf("%v: Get(%d) = (%d, %v, %v), the spec's %+v (partitioned: %v)", kvspec.ErrOffSpec, key, v, ok, err, want, c.spec.Part)
	}
	return v, ok, err
}

func (c *checked) MultiGet(keys []core.Val) ([]kv.Lookup, error) {
	c.t.Helper()
	res, err := c.DB.MultiGet(keys)
	if c.frontDenied("multiget", err) || !c.up() {
		return res, err
	}
	got := make([]kvspec.Lookup, len(res))
	for i, l := range res {
		got[i] = kvspec.Lookup(l)
	}
	p, serr := c.spec.MultiGet(keys, got, c.Metrics().PerShardAcked)
	if serr != nil {
		c.t.Fatalf("%v (error %v; partitioned: %v)", serr, err, c.spec.Part)
	}
	c.withheld("multiget", p, err)
	return res, err
}

func (c *checked) Scan(lo, hi core.Val, limit int) ([]kv.Pair, error) {
	c.t.Helper()
	pairs, err := c.DB.Scan(lo, hi, limit)
	if c.frontDenied("scan", err) || !c.up() {
		return pairs, err
	}
	c.adopt()
	want, p := c.spec.Scan(lo, hi, limit)
	if !slices.EqualFunc(pairs, want, func(a kv.Pair, b kvspec.Pair) bool { return kvspec.Pair(a) == b }) {
		c.t.Fatalf("%v: Scan(%d, %d, %d) = %v, the spec's %v (partitioned: %v)", kvspec.ErrOffSpec, lo, hi, limit, pairs, want, c.spec.Part)
	}
	c.withheld("scan", p, err)
	return pairs, err
}

// withheld holds a fan-out read's error to what the spec says it
// withheld: nothing and no error, or a *kv.PartialResultError naming it
// that unwraps to kv.ErrUnavailable.
func (c *checked) withheld(op string, p kvspec.Partial, err error) {
	c.t.Helper()
	var partial *kv.PartialResultError
	if (err == nil) != (p.Missing == 0) || (err != nil && (!errors.As(err, &partial) || !errors.Is(err, kv.ErrUnavailable) ||
		partial.Op != op || partial.Missing != p.Missing || !slices.Equal(partial.Unavailable, p.Unavailable))) {
		c.t.Fatalf("%v: %s failed with %v; the spec withholds %+v", kvspec.ErrOffSpec, op, err, p)
	}
}

// Sync commits everything: every watermark reaches its log's end.
func (c *checked) Sync() error {
	c.t.Helper()
	err := c.DB.Sync()
	if c.frontDenied("sync", err) {
		return err
	}
	if c.adopt(); err != nil {
		return err
	}
	for i, s := range c.spec.Shards {
		if err := s.Synced(); err != nil {
			c.t.Fatalf("shard %d: %v", i, err)
		}
	}
	return nil
}

func (c *checked) Crash(i int) {
	c.DB.Crash(i)
	c.down[i] = true
}

// Recover adopts a down shard's recovery as its cut; an up shard's is a
// no-op, and a refused one leaves the shard down.
func (c *checked) Recover(i int) (kv.RecoveryStats, error) {
	c.t.Helper()
	rs, err := c.DB.Recover(i)
	if c.frontDenied("recover", err) {
		return rs, err
	}
	if err == nil && c.down[i] {
		c.recovered(rs)
	}
	c.adopt()
	return rs, err
}

// recovered adopts a recovery of shard rs.Shard, which is up again, as
// the cut it names.
func (c *checked) recovered(rs kv.RecoveryStats) {
	c.t.Helper()
	c.down[rs.Shard] = false
	if err := c.spec.Shards[rs.Shard].Recover(rs.Recovered); err != nil {
		c.t.Fatalf("shard %d: %v", rs.Shard, err)
	}
}

func (c *checked) CrashFront() {
	c.DB.CrashFront()
	c.front = true
}

// RecoverFront adopts the re-attachment of every up shard as its cut.
func (c *checked) RecoverFront() ([]kv.RecoveryStats, error) {
	c.t.Helper()
	stats, err := c.DB.RecoverFront()
	for _, rs := range stats {
		c.recovered(rs)
	}
	if err != nil || !c.front {
		return stats, err
	}
	up := len(c.down)
	for _, down := range c.down {
		if down {
			up--
		}
	}
	if len(stats) != up {
		c.t.Fatalf("%v: the front re-attached %d shards of %d up", kvspec.ErrOffSpec, len(stats), up)
	}
	c.front = false
	c.adopt()
	return stats, nil
}

func (c *checked) Partition(i int) {
	c.DB.Partition(i)
	c.spec.Part[i] = true
}

func (c *checked) Heal(i int) {
	c.DB.Heal(i)
	c.spec.Part[i] = false
}

// readAll reads every key of [0, n).
func (c *checked) readAll(n core.Val) {
	for k := range n {
		c.Get(k)
	}
}

// Compact folds the log of every shard the DB compacted.
func (c *checked) Compact() ([]kv.CompactionStats, error) {
	c.t.Helper()
	stats, err := c.DB.Compact()
	if c.frontDenied("compact", err) {
		return stats, err
	}
	for _, cs := range stats {
		c.spec.Shards[cs.Shard].Compact()
	}
	c.adopt()
	return stats, err
}

// put is a Put that must succeed.
func (c *checked) put(key, val core.Val) {
	c.t.Helper()
	if _, err := c.Put(key, val); err != nil {
		c.t.Fatalf("put(%d, %d): %v", key, val, err)
	}
}

// get is a Get that must read val. The suites pin the watermark gate
// with it: the checked read alone follows the watermark the DB reports.
func (c *checked) get(key, val core.Val) {
	c.t.Helper()
	if v, _, _ := c.Get(key); v != val {
		c.t.Fatalf("get(%d) = %d, want %d", key, v, val)
	}
}

// sync is a Sync that must succeed.
func (c *checked) sync() {
	c.t.Helper()
	if err := c.Sync(); err != nil {
		c.t.Fatal(err)
	}
}
