package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cxl0/internal/core"
	"cxl0/internal/kv/kvspec"
)

// The service's crash properties, held to one spec (kvspec). Each
// row decodes random bytes (quick draws up to 49) into an op stream of
// writes, reads and the row's faults, and runs it on a two-shard store
// with eviction churn (EvictEvery 2) under every hardware variant, while
// specRun holds every outcome to one kvspec.Shard per shard:
//
//   - TestCrashRecoveryProperty: every strategy; the faults are a shard
//     crash + Recover and an eviction churn.
//   - TestPipelineCrashRecoveryProperty: the batched strategies at
//     pipeline depths 2 and 4, so reads see only the acknowledged prefix;
//     a front-end crash + RecoverFront joins the faults.
//   - TestAutoCompactCrashChurnProperty: every strategy on 12-record logs
//     that compact at 60 % fill; every sweep cell must compact.
//   - TestFaultCampaignProperty: every strategy under campaign faults:
//     partitions (ops denied with ErrUnavailable, nothing lost on heal),
//     device degradation, and correlated crashes of every shard at one
//     instant, recovered in index order, a partitioned shard healed first.
//
// The durability property they share: a recovery keeps a prefix of the
// shard's log that holds every acknowledged write, and the shard then
// reads as exactly that prefix.

// specRun drives one store and holds it to one kvspec.Shard per shard. The
// store's error rules decide which records a write appends; every read,
// recovery, heal, degrade, churn and Sync must agree with the spec. tally
// counts the steps a property run took.
type specRun struct {
	st    *Store
	spec  []*kvspec.Shard
	part  []bool   // partitioned shards
	keys  core.Val // the keyspace is [0, keys)
	tally tally
}

func newSpecRun(st *Store, keys core.Val) *specRun {
	r := &specRun{st: st, part: make([]bool, st.NumShards()), keys: keys}
	gated := st.cfg.PipelineDepth > 1 && st.cfg.Strategy.Batched()
	for range st.NumShards() {
		r.spec = append(r.spec, kvspec.NewShard(gated))
	}
	return r
}

// write puts key to val (0 deletes it) and adopts the outcome. A write to
// a partitioned shard is denied before anything moves. One that a remote
// partition stops at its commit (the GPF blast radius) has appended its
// record under a batched strategy and nothing under a per-operation one.
// An auto-compaction the append ran first folds the log.
func (r *specRun) write(key, val core.Val) error {
	i := r.st.ShardOf(key)
	epoch := r.st.SnapshotEpoch(i)
	var ack Ack
	var err error
	if val == 0 {
		ack, err = r.st.Delete(key)
	} else {
		ack, err = r.st.Put(key, val)
	}
	r.folded(i, epoch)
	sp := r.spec[i]
	switch {
	case r.part[i]:
		if !errors.Is(err, ErrUnavailable) {
			return fmt.Errorf("%w: write(%d) to partitioned shard %d: %v, want ErrUnavailable", kvspec.ErrOffSpec, key, i, err)
		}
	case err == nil:
		sp.Write(key, val)
		if ack.Seq != len(sp.Log)-1 {
			return fmt.Errorf("%w: write(%d) took slot %d, the spec's is %d", kvspec.ErrOffSpec, key, ack.Seq, len(sp.Log)-1)
		}
	case errors.Is(err, ErrUnavailable) && slices.Contains(r.part, true):
		if r.st.cfg.Strategy.Batched() {
			sp.Write(key, val)
		}
	default:
		return fmt.Errorf("write(%d): %w", key, err)
	}
	return r.watermarks()
}

// folded adopts a compaction of shard i, seen as its snapshot epoch
// moving past epoch.
func (r *specRun) folded(i int, epoch uint64) {
	if r.st.SnapshotEpoch(i) != epoch {
		r.spec[i].Compact()
		r.tally[opCompact]++
	}
}

// compact compacts shard i.
func (r *specRun) compact(i int) error {
	epoch := r.st.SnapshotEpoch(i)
	_, err := r.st.CompactShard(i)
	r.folded(i, epoch)
	if err != nil {
		return err
	}
	return r.watermarks()
}

// apply runs a batch and adopts, on each shard, the prefix of the batch's
// writes there that its log took: a crash can cut a batch.
func (r *specRun) apply(b *Batch) (Ack, error) {
	ack, err := r.st.Apply(b)
	for _, op := range b.ops {
		if i := r.st.ShardOf(op.key); len(r.spec[i].Log) < r.st.AppendedCount(i) {
			r.spec[i].Write(op.key, op.val)
		}
	}
	return ack, err
}

// watermarks moves every shard's spec watermark to the store's.
func (r *specRun) watermarks() error {
	for i, sp := range r.spec {
		from := sp.Acked
		if err := sp.Ack(r.st.AckedCount(i)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := r.persisted(i, from); err != nil {
			return err
		}
	}
	return nil
}

// persisted holds the records of shard i's log from slot from up to the
// spec's watermark, which has just passed them, to the medium: each is in
// its owner's memory word for word, whatever the caches hold.
func (r *specRun) persisted(i, from int) error {
	sp, sh := r.spec[i], r.st.shards[i]
	epoch := r.st.SnapshotEpoch(i)
	for slot := from; slot < sp.Acked; slot++ {
		x := sp.Log[slot]
		want := [recWords]core.Val{x.Key, x.Val, chkOf(slot, x.Key, x.Val, epoch)}
		for w, v := range want {
			if got := r.st.Cluster().PersistedValue(sh.logR.loc(slot, w)); got != v {
				return fmt.Errorf("%w: shard %d: acknowledged record %d holds %d in word %d of memory, want %d", kvspec.ErrOffSpec, i, slot, got, w, v)
			}
		}
	}
	return nil
}

// read gets key and holds the result to the spec, after the watermark
// moves the read's own retire pass made. A partitioned shard denies it.
func (r *specRun) read(key core.Val) error {
	i := r.st.ShardOf(key)
	v, ok, err := r.st.Get(key)
	if werr := r.watermarks(); werr != nil {
		return werr
	}
	if r.part[i] {
		if !errors.Is(err, ErrUnavailable) {
			return fmt.Errorf("%w: get(%d) on partitioned shard %d: %v, want ErrUnavailable", kvspec.ErrOffSpec, key, i, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("get(%d): %w", key, err)
	}
	if wv, wok := r.spec[i].Get(key); ok != wok || (ok && v != wv) {
		return fmt.Errorf("%w: get(%d) = (%d, %v), the spec's (%d, %v)", kvspec.ErrOffSpec, key, v, ok, wv, wok)
	}
	return nil
}

// check reads every key of shard i, or of every shard when i < 0.
func (r *specRun) check(i int) error {
	for k := range r.keys {
		if i < 0 || r.st.ShardOf(k) == i {
			if err := r.read(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// recovered adopts a recovery's cut, which is durable, and checks the
// shard.
func (r *specRun) recovered(rs RecoveryStats) error {
	from := r.spec[rs.Shard].Acked
	if err := r.spec[rs.Shard].Recover(rs.Recovered); err != nil {
		return fmt.Errorf("shard %d: %w", rs.Shard, err)
	}
	if err := r.persisted(rs.Shard, from); err != nil {
		return err
	}
	return r.check(rs.Shard)
}

// crash fails shards [from, to) at one instant and recovers them in
// order. A partitioned shard refuses recovery until it is healed, and
// every one is healed first: a GPF of a recovery must reach them all.
func (r *specRun) crash(from, to int) error {
	for i := from; i < to; i++ {
		r.st.Crash(i)
	}
	for i := from; i < to; i++ {
		if !r.part[i] {
			continue
		}
		if _, err := r.st.Recover(i); !errors.Is(err, ErrUnavailable) {
			return fmt.Errorf("%w: recover of partitioned shard %d: %v, want ErrUnavailable", kvspec.ErrOffSpec, i, err)
		}
		r.heal(i)
	}
	for i := from; i < to; i++ {
		rs, err := r.st.Recover(i)
		if err != nil {
			return fmt.Errorf("recover(%d): %w", i, err)
		}
		if err := r.recovered(rs); err != nil {
			return err
		}
	}
	return nil
}

// front crashes the front end and re-attaches every shard.
func (r *specRun) front() error {
	r.st.CrashFront()
	stats, err := r.st.RecoverFront()
	if err != nil {
		return fmt.Errorf("recover front: %w", err)
	}
	if len(stats) != len(r.spec) {
		return fmt.Errorf("%w: front re-attached %d shards, want %d", kvspec.ErrOffSpec, len(stats), len(r.spec))
	}
	for _, rs := range stats {
		if err := r.recovered(rs); err != nil {
			return err
		}
	}
	return nil
}

func (r *specRun) heal(i int) {
	r.st.Heal(i)
	r.part[i] = false
}

// quiet runs a heal, a degrade or an eviction churn, none of which moves
// anything visible: no watermark moves, and shard i (every shard when
// i < 0) reads as the spec says.
func (r *specRun) quiet(i int, f func()) error {
	f()
	for j, sp := range r.spec {
		if n := r.st.AckedCount(j); n != sp.Acked {
			return fmt.Errorf("%w: shard %d: watermark moved %d -> %d", kvspec.ErrOffSpec, j, sp.Acked, n)
		}
	}
	return r.check(i)
}

// sync runs a Sync, after which every watermark is at its log's end.
func (r *specRun) sync() error {
	if err := r.st.Sync(); err != nil {
		return err
	}
	if err := r.watermarks(); err != nil {
		return err
	}
	for i, sp := range r.spec {
		if err := sp.Synced(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// final heals every partition, syncs, and checks every key.
func (r *specRun) final() error {
	for i, p := range r.part {
		if p {
			r.heal(i)
		}
	}
	if err := r.sync(); err != nil {
		return fmt.Errorf("final: %w", err)
	}
	return r.check(-1)
}

// opKind is a kind of step of a property's op stream.
type opKind int

const (
	opPut opKind = iota
	opDelete
	opGet
	opFault     // one of the row's faults, drawn with its target from the run's rng
	opChurn     // evict lines across the cluster
	opCrash     // crash one shard and recover it
	opFront     // crash the front end and re-attach every shard
	opDegrade   // slow one shard's device
	opPartition // partition one shard; an opHeal when it is partitioned
	opHeal
	opBlast   // crash every shard at one instant
	opCompact // tallied only: a compaction a write ran
	nOpKinds
)

var opNames = [nOpKinds]string{"put", "delete", "get", "fault", "churn", "crash", "front", "degrade", "partition", "heal", "blast", "compact"}

// tally counts steps by kind.
type tally [nOpKinds]int

func (n *tally) add(m tally) {
	for k := range n {
		n[k] += m[k]
	}
}

func (n tally) String() string {
	var s []string
	for k, c := range n {
		if c > 0 {
			s = append(s, fmt.Sprintf("%s %d", opNames[k], c))
		}
	}
	return strings.Join(s, ", ")
}

// propertyRow is one crash property: the store it opens, what its input
// bytes decode to, and how quick samples them.
type propertyRow struct {
	strategies []Strategy
	depths     []int // pipeline depths, one subtest each; nil runs depth 1
	capacity   int
	compactAt  float64 // Config.CompactAtFill
	keys       core.Val
	// ops maps an input byte b to its step, ops[b/16 % len(ops)], and
	// b % keys to its key; an opFault step is one of faults.
	ops, faults []opKind
	maxCount    int
	// seed seeds quick: strategy·seed[0] + variant·seed[1] + depth·seed[2].
	seed [3]int64
}

// run sweeps the row over every variant, strategy and depth, and fails a
// cell in which a kind of step the row names never ran.
func (row propertyRow) run(t *testing.T) {
	depths := row.depths
	if depths == nil {
		depths = []int{1}
	}
	needs := slices.Concat(row.ops, row.faults)
	if row.compactAt > 0 {
		needs = append(needs, opCompact)
	}
	var total tally
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range row.strategies {
			for _, depth := range depths {
				name := fmt.Sprintf("%v/%v", variant, strat)
				if row.depths != nil {
					name += fmt.Sprintf("/K%d", depth)
				}
				cfg := Config{
					Shards: 2, Capacity: row.capacity, CompactAtFill: row.compactAt,
					Strategy: strat, Batch: 3, Variant: variant, EvictEvery: 2, PipelineDepth: depth,
				}
				seed := int64(strat)*row.seed[0] + int64(variant)*row.seed[1] + int64(depth)*row.seed[2]
				t.Run(name, func(t *testing.T) {
					var n tally
					f := func(seed int64, opsRaw []byte) bool {
						err := row.interpret(cfg, seed, opsRaw, &n)
						if err != nil {
							t.Log(err)
						}
						return err == nil
					}
					if err := quick.Check(f, &quick.Config{MaxCount: row.maxCount, Rand: rand.New(rand.NewSource(seed))}); err != nil {
						t.Fatal(err)
					}
					for _, k := range needs {
						if k != opFault && n[k] == 0 {
							t.Fatalf("no run took a %s step (%v)", opNames[k], n)
						}
					}
					total.add(n)
				})
			}
		}
	}
	t.Logf("steps run: %v", total)
}

// interpret opens the row's store and runs one op stream on it.
func (row propertyRow) interpret(cfg Config, seed int64, opsRaw []byte, n *tally) error {
	cfg.Seed = seed
	st, err := Open(cfg)
	if err != nil {
		return err
	}
	r := newSpecRun(st, row.keys)
	defer func() { n.add(r.tally) }()
	rng := rand.New(rand.NewSource(seed))
	for i, b := range opsRaw {
		k := core.Val(b) % row.keys
		kind, target := row.ops[int(b/16)%len(row.ops)], 0
		if kind == opFault {
			target = rng.Intn(len(r.spec))
			kind = row.faults[rng.Intn(len(row.faults))]
		}
		if kind == opPartition && r.part[target] {
			kind = opHeal
		}
		r.tally[kind]++
		var err error
		switch kind {
		case opPut:
			err = r.write(k, core.Val(1+int(b)%90+i))
		case opDelete:
			err = r.write(k, 0)
		case opGet:
			err = r.read(k)
		case opChurn:
			err = r.quiet(-1, func() { st.Cluster().Churn(4) })
		case opCrash:
			err = r.crash(target, target+1)
		case opFront:
			err = r.front()
		case opDegrade:
			factor := float64(1 + rng.Intn(8))
			err = r.quiet(target, func() { st.Degrade(target, factor) })
		case opPartition:
			st.Partition(target)
			r.part[target] = true
		case opHeal:
			err = r.quiet(target, func() { r.heal(target) })
		case opBlast:
			err = r.crash(0, len(r.spec))
		}
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, opNames[kind], err)
		}
	}
	return r.final()
}

func TestCrashRecoveryProperty(t *testing.T) {
	propertyRow{
		strategies: Strategies, capacity: 256, keys: 13,
		ops: []opKind{opPut, opPut, opDelete, opGet, opFault}, faults: []opKind{opChurn, opCrash, opCrash},
		maxCount: 25, seed: [3]int64{31, 1, 0},
	}.run(t)
}

func TestPipelineCrashRecoveryProperty(t *testing.T) {
	propertyRow{
		strategies: []Strategy{GroupCommit, RangedCommit}, depths: []int{2, 4}, capacity: 256, keys: 13,
		ops: []opKind{opPut, opPut, opDelete, opGet, opFault}, faults: []opKind{opChurn, opFront, opCrash, opCrash},
		maxCount: 20, seed: [3]int64{31, 7, 1},
	}.run(t)
}

func TestAutoCompactCrashChurnProperty(t *testing.T) {
	propertyRow{
		strategies: Strategies, capacity: 12, compactAt: 0.6, keys: 11,
		ops: []opKind{opPut, opPut, opDelete, opGet, opFault}, faults: []opKind{opChurn, opCrash, opCrash},
		maxCount: 20, seed: [3]int64{37, 1, 0},
	}.run(t)
}

func TestFaultCampaignProperty(t *testing.T) {
	propertyRow{
		strategies: Strategies, capacity: 256, keys: 13,
		ops: []opKind{opPut, opPut, opDelete, opGet, opFault, opBlast}, faults: []opKind{opDegrade, opPartition},
		maxCount: 20, seed: [3]int64{41, 1, 0},
	}.run(t)
}

// verifyMigrated checks the store's keys against the model after
// migrations and crashes: every acknowledged write must be served with its
// value, deleted keys must stay deleted, and no key may be indexed on more
// than one shard (or on a shard the map does not route it to).
func verifyMigrated(t *testing.T, st *Store, want map[core.Val]core.Val, keys []core.Val) {
	t.Helper()
	for _, k := range keys {
		v, ok, err := st.Get(k)
		if err != nil {
			t.Fatalf("get(%d): %v", k, err)
		}
		wv, wok := want[k]
		if ok != wok || (ok && v != wv) {
			t.Fatalf("get(%d) = (%d,%v), model (%d,%v)", k, v, ok, wv, wok)
		}
		owners := 0
		for i, sh := range st.shards {
			if _, present := sh.view.visible(k); present {
				owners++
				if st.ShardOf(k) != i {
					t.Fatalf("key %d indexed on shard %d but routed to shard %d", k, i, st.ShardOf(k))
				}
			}
		}
		if owners > 1 {
			t.Fatalf("key %d served from %d shards", k, owners)
		}
	}
}

// sweepKeys is the key set of the migration and compaction crash tests:
// four keys in the bucket of each of keys 0..7 (eight buckets of a
// two-shard store), so every bucket a test moves carries several records.
func sweepKeys(st *Store) []core.Val {
	var keys []core.Val
	for k := core.Val(0); k < 8; k++ {
		keys = append(keys, bucketMates(st, k, 4)...)
	}
	return keys
}

// requireMultiRecord fails the test unless bucket b holds at least two
// live keys of want, so a migration of b has a copy on each side of
// StepMidCopy.
func requireMultiRecord(t *testing.T, st *Store, want map[core.Val]core.Val, b int) {
	t.Helper()
	n := 0
	for k := range want { //cxl0:order-insensitive — a count
		if st.BucketOf(k) == b {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("bucket %d holds %d live records, want at least 2", b, n)
	}
}

// migrateSteps and compactSteps are the checkpoints of a bucket migration
// and of a shard compaction, in protocol order; a crash test's seed
// derives from its step's index here.
var (
	migrateSteps = []Step{StepBeforeCopy, StepMidCopy, StepAfterCopy, StepBeforeFlip, StepAfterFlip}
	compactSteps = []Step{
		StepBeforeSnapshot, StepMidSnapshot, StepAfterSnapshot,
		StepBeforeEpoch, StepAfterEpoch, StepAfterReclaim,
	}
)

// testMigrationCrashAt runs one migration with a crash injected at the
// given step (victim: source shard, destination shard, or both) and checks
// that acknowledged writes survive, ownership stays single-shard, and the
// store keeps working — through a repeated migration and one more full
// crash/recover cycle.
func testMigrationCrashAt(t *testing.T, strat Strategy, variant core.Variant, step Step, victim string) {
	st, err := Open(Config{
		Shards:     2,
		Capacity:   512,
		Strategy:   strat,
		Batch:      3,
		Variant:    variant,
		EvictEvery: 2,
		Seed:       int64(strat)*1000 + int64(variant)*100 + int64(slices.Index(migrateSteps, step))*10 + int64(len(victim)),
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := sweepKeys(st)
	want := map[core.Val]core.Val{}
	for _, k := range keys {
		if _, err := st.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 100 + k
	}
	for i := 0; i < len(keys); i += 7 {
		k := keys[i]
		if _, err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Every surviving write above is acknowledged durable from here on.

	// Move the bucket of the first live key.
	b := -1
	for _, k := range keys {
		if _, ok := want[k]; ok {
			b = st.BucketOf(k)
			break
		}
	}
	requireMultiRecord(t, st, want, b)
	from := st.ShardOfBucket(b)
	to := 1 - from

	fired := false
	st.stepHook = func(s Step) {
		if s != step || fired {
			return
		}
		fired = true
		if victim == "src" || victim == "both" {
			st.crashLocked(from)
		}
		if victim == "dst" || victim == "both" {
			st.crashLocked(to)
		}
	}
	_, migErr := st.MigrateBucket(b, to)
	st.stepHook = nil
	if !fired {
		t.Fatalf("hook never fired at %v", step)
	}
	// Aborting (migErr != nil) and completing are both legal outcomes of a
	// mid-migration crash; what must hold afterwards is the contract below.
	for i := range st.shards {
		if st.shards[i].down {
			if _, err := st.Recover(i); err != nil {
				t.Fatalf("recover shard %d (migrate err %v): %v", i, migErr, err)
			}
		}
	}
	verifyMigrated(t, st, want, keys)

	// Mutate the bucket's keys so any orphaned copies the aborted attempt
	// left in a log now hold stale values — if a later replay fails to
	// retire them (the move-in marker's wipe rule), verification catches
	// the resurrection.
	mutated := false
	for _, k := range keys {
		if st.BucketOf(k) != b {
			continue
		}
		if _, ok := want[k]; !ok {
			continue
		}
		if !mutated {
			if _, err := st.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
			mutated = true
			continue
		}
		if _, err := st.Put(k, 900+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 900 + k
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// The service must still migrate and serve: finish moving the bucket
	// (wherever it ended up) to the other shard, then survive one more
	// crash/recover round per shard.
	cur := st.ShardOfBucket(b)
	if _, err := st.MigrateBucket(b, 1-cur); err != nil {
		t.Fatalf("follow-up migration: %v", err)
	}
	verifyMigrated(t, st, want, keys)
	for i := range st.shards {
		st.Crash(i)
		if _, err := st.Recover(i); err != nil {
			t.Fatalf("post-migration recover shard %d: %v", i, err)
		}
	}
	verifyMigrated(t, st, want, keys)
}

// TestMigrationCrashSteps crashes the source shard, the destination shard,
// and both at every checkpoint of a bucket migration, across all six
// persistence strategies and all three hardware variants: acknowledged
// writes must survive and no key may ever be served from two shards.
func TestMigrationCrashSteps(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			for _, step := range migrateSteps {
				for _, victim := range []string{"src", "dst", "both"} {
					t.Run(fmt.Sprintf("%v/%v/%v/%s", variant, strat, step, victim), func(t *testing.T) {
						testMigrationCrashAt(t, strat, variant, step, victim)
					})
				}
			}
		}
	}
}

// TestMigrationRedoFromLog simulates losing the in-memory map flip after
// the migration's commit point (the front-end dying between the durable
// move-out record and the flip, modeled by a panicking hook): recovery of
// the source shard must read the move-out record and complete the flip,
// serving the bucket from the destination's durable copies.
func TestMigrationRedoFromLog(t *testing.T) {
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			st, err := Open(Config{
				Shards: 2, Capacity: 256, Strategy: strat, Batch: 3, Seed: 21, EvictEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := sweepKeys(st)
			want := map[core.Val]core.Val{}
			for _, k := range keys {
				if _, err := st.Put(k, 500+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 500 + k
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			b := st.BucketOf(keys[0])
			requireMultiRecord(t, st, want, b)
			from := st.ShardOfBucket(b)
			to := 1 - from

			st.stepHook = func(s Step) {
				if s == StepBeforeFlip {
					st.crashLocked(from)
					panic("front-end died before the map flip")
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("hook did not panic")
					}
				}()
				st.MigrateBucket(b, to)
			}()
			st.stepHook = nil
			if st.ShardOfBucket(b) != from {
				t.Fatal("map flipped despite the lost flip")
			}
			if _, err := st.Recover(from); err != nil {
				t.Fatal(err)
			}
			if st.ShardOfBucket(b) != to {
				t.Fatalf("recovery did not redo the flip: bucket %d still on shard %d", b, from)
			}
			verifyMigrated(t, st, want, keys)
		})
	}
}

// TestMigrationRedoWithDestinationDown: recovery redoes a lost flip while
// the destination is also down. The destination's index must be rebuilt
// from its mirror anyway — so a Scan over the bucket's keys reports
// ErrShardDown instead of silently omitting acknowledged data — and after
// the destination recovers, every key is served from it.
func TestMigrationRedoWithDestinationDown(t *testing.T) {
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			st, err := Open(Config{
				Shards: 2, Capacity: 256, Strategy: strat, Batch: 3, Seed: 33, EvictEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := sweepKeys(st)
			want := map[core.Val]core.Val{}
			for _, k := range keys {
				if _, err := st.Put(k, 500+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 500 + k
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			b := st.BucketOf(keys[0])
			requireMultiRecord(t, st, want, b)
			from := st.ShardOfBucket(b)
			to := 1 - from

			st.stepHook = func(s Step) {
				if s == StepBeforeFlip {
					st.crashLocked(from)
					st.crashLocked(to)
					panic("front-end died before the map flip, both shards down")
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("hook did not panic")
					}
				}()
				st.MigrateBucket(b, to)
			}()
			st.stepHook = nil

			// Recover only the source: the redo flips the bucket to the
			// still-down destination.
			if _, err := st.Recover(from); err != nil {
				t.Fatal(err)
			}
			if st.ShardOfBucket(b) != to {
				t.Fatalf("recovery did not redo the flip onto the down destination")
			}
			// The bucket's keys are durably owned by the down destination:
			// reads and scans over them must fail loudly, not omit them.
			bucketKey := keys[0]
			if _, _, err := st.Get(bucketKey); !errors.Is(err, ErrShardDown) {
				t.Fatalf("get on redo'd-down shard: %v, want ErrShardDown", err)
			}
			if _, err := st.Scan(bucketKey, bucketKey+1, 0); !errors.Is(err, ErrShardDown) {
				t.Fatalf("scan over redo'd-down shard's key: %v, want ErrShardDown", err)
			}
			if _, err := st.Recover(to); err != nil {
				t.Fatal(err)
			}
			verifyMigrated(t, st, want, keys)
		})
	}
}

// TestMigrationRedoSupersededByLaterWrites pins the one case where a
// durable move-out record must NOT be redone: the migration failed in
// phase 2 (commit record durable, map never flipped — modeled by a
// panicking hook with no machine crash), the source kept serving the
// bucket and acknowledged newer writes, and only then crashed. Redoing
// the flip would resurrect the destination's stale copies over the
// acknowledged values.
func TestMigrationRedoSupersededByLaterWrites(t *testing.T) {
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			st, err := Open(Config{
				Shards: 2, Capacity: 256, Strategy: strat, Batch: 3, Seed: 27, EvictEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := sweepKeys(st)
			want := map[core.Val]core.Val{}
			for _, k := range keys {
				if _, err := st.Put(k, 500+k); err != nil {
					t.Fatal(err)
				}
				want[k] = 500 + k
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			// A bucket with at least two live keys: the supersede must be
			// provable from a single rewritten key while the OTHER keys'
			// survival is what the wipe rule would otherwise destroy.
			rewrite := keys[0]
			b := st.BucketOf(rewrite)
			requireMultiRecord(t, st, want, b)
			from := st.ShardOfBucket(b)

			// Phase-2 failure: move-out durable, flip lost, no crash.
			st.stepHook = func(s Step) {
				if s == StepBeforeFlip {
					panic("phase-2 failure after the commit record")
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("hook did not panic")
					}
				}()
				st.MigrateBucket(b, 1-from)
			}()
			st.stepHook = nil

			// The source keeps serving the bucket and acknowledges ONE
			// newer write after the orphaned marker — every other key of
			// the bucket must survive recovery untouched.
			if _, err := st.Put(rewrite, 700+rewrite); err != nil {
				t.Fatal(err)
			}
			want[rewrite] = 700 + rewrite
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}

			st.Crash(from)
			if _, err := st.Recover(from); err != nil {
				t.Fatal(err)
			}
			if st.ShardOfBucket(b) != from {
				t.Fatalf("recovery redid a superseded flip: bucket %d moved to shard %d", b, st.ShardOfBucket(b))
			}
			verifyMigrated(t, st, want, keys)

			// The bucket must still migrate cleanly afterwards.
			if _, err := st.MigrateBucket(b, 1-from); err != nil {
				t.Fatal(err)
			}
			verifyMigrated(t, st, want, keys)
		})
	}
}

// testCompactionCrashAt runs one shard compaction with a crash injected
// at the given checkpoint and checks the compaction contract: every
// acknowledged write survives (served with its exact value — old state if
// the crash aborted the compaction, identical state if it committed),
// ownership stays single-shard, and the service keeps serving, compacting
// and recovering afterwards.
func testCompactionCrashAt(t *testing.T, strat Strategy, variant core.Variant, step Step) {
	st, err := Open(Config{
		Shards:     2,
		Capacity:   128,
		Strategy:   strat,
		Batch:      3,
		Variant:    variant,
		EvictEvery: 2,
		Seed:       int64(strat)*1000 + int64(variant)*100 + int64(slices.Index(compactSteps, step))*10,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := sweepKeys(st)
	want := map[core.Val]core.Val{}
	for _, k := range keys {
		if _, err := st.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 100 + k
	}
	for i := 0; i < len(keys); i += 7 {
		k := keys[i]
		if _, err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	for i := 1; i < len(keys); i += 5 {
		k := keys[i]
		if _, err := st.Put(k, 200+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 200 + k
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Every surviving write above is acknowledged durable from here on.

	target := st.ShardOf(keys[1])
	fired := false
	st.stepHook = func(s Step) {
		if s != step || fired {
			return
		}
		fired = true
		st.crashLocked(target)
	}
	_, compErr := st.CompactShard(target)
	st.stepHook = nil
	if !fired {
		t.Fatalf("hook never fired at %v", step)
	}
	// Aborting (compErr != nil) and committing are both legal outcomes of
	// a mid-compaction crash; what must hold afterwards is the contract
	// below.
	if st.shards[target].down {
		if _, err := st.Recover(target); err != nil {
			t.Fatalf("recover shard %d (compact err %v): %v", target, compErr, err)
		}
	}
	verifyMigrated(t, st, want, keys)

	// The service must keep serving and compacting: overwrite and delete
	// more keys (so a stale snapshot or log leftover would be caught as a
	// resurrection), compact again, and survive one more crash/recover
	// round per shard.
	for i := 2; i < len(keys); i += 3 {
		k := keys[i]
		if _, ok := want[k]; !ok {
			continue
		}
		if _, err := st.Put(k, 900+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 900 + k
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CompactShard(target); err != nil {
		t.Fatalf("follow-up compaction: %v", err)
	}
	if st.SnapshotEpoch(target) == 0 {
		t.Fatal("no snapshot epoch committed by the follow-up compaction")
	}
	verifyMigrated(t, st, want, keys)
	for i := range st.shards {
		st.Crash(i)
		if _, err := st.Recover(i); err != nil {
			t.Fatalf("post-compaction recover shard %d: %v", i, err)
		}
	}
	verifyMigrated(t, st, want, keys)
}

// TestCompactionCrashSteps crashes the compacting shard at every
// checkpoint of a compaction — before/mid/after the snapshot write,
// before/after the epoch-record commit, after the reclaim — across all
// six persistence strategies and all three hardware variants:
// acknowledged writes must survive, state must resolve to old-or-new
// (never garbage), and the service must keep compacting.
func TestCompactionCrashSteps(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			for _, step := range compactSteps {
				t.Run(fmt.Sprintf("%v/%v/%v", variant, strat, step), func(t *testing.T) {
					testCompactionCrashAt(t, strat, variant, step)
				})
			}
		}
	}
}

// testApplyCorrelatedCrash crashes BOTH shards at one simulated instant
// in the middle of a client batch Apply: each shard then reads as the
// spec's log cut where its recovery cut it, which keeps the pre-batch
// acknowledged state and a prefix of the shard's part of the batch, and
// re-applying the batch afterwards completes it.
func testApplyCorrelatedCrash(t *testing.T, strat Strategy, variant core.Variant, at int) {
	const keys = 21
	st := openTest(t, Config{
		Shards:     2,
		Capacity:   256,
		Strategy:   strat,
		Batch:      3,
		Variant:    variant,
		EvictEvery: 2,
		Seed:       int64(strat)*100 + int64(variant)*10 + int64(at),
	})
	r := newSpecRun(st, keys)
	for k := core.Val(0); k < keys; k++ {
		if err := r.write(k, 100+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.sync(); err != nil {
		t.Fatal(err)
	}

	b := &Batch{}
	for k := core.Val(0); k < keys; k += 2 {
		b.Put(k, 300+k)
	}
	fired := false
	st.applyHook = func(i int) {
		if i != at || fired {
			return
		}
		fired = true
		// The whole blast radius at one instant, mid-batch.
		st.crashLocked(0)
		st.crashLocked(1)
	}
	_, applyErr := r.apply(b)
	st.applyHook = nil
	if !fired {
		t.Fatalf("apply hook never fired at op %d", at)
	}
	if !errors.Is(applyErr, ErrShardDown) {
		t.Fatalf("mid-batch correlated crash: Apply returned %v, want ErrShardDown", applyErr)
	}
	if err := r.watermarks(); err != nil {
		t.Fatal(err)
	}
	for i := range st.shards {
		rs, err := st.Recover(i)
		if err != nil {
			t.Fatalf("recover shard %d: %v", i, err)
		}
		if err := r.recovered(rs); err != nil {
			t.Fatal(err)
		}
	}
	// The service completes the batch on retry.
	if ack, err := r.apply(b); err != nil || !ack.Durable {
		t.Fatalf("re-apply after recovery: ack %+v err %v", ack, err)
	}
	if err := r.final(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyCorrelatedCrash sweeps the mid-Apply correlated double-crash
// over early/mid/late batch positions for every strategy and variant.
func TestApplyCorrelatedCrash(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		for _, strat := range Strategies {
			for _, at := range []int{0, 4, 9} {
				t.Run(fmt.Sprintf("%v/%v/at%d", variant, strat, at), func(t *testing.T) {
					testApplyCorrelatedCrash(t, strat, variant, at)
				})
			}
		}
	}
}

// TestRecoveryAfterDoubleCrash exercises the log-truncation path: a crash
// with unacknowledged pending writes, recovery, more writes reusing the
// truncated slots, and a second crash — stale records from the first
// incarnation must never resurrect, so each recovery reads as the spec's
// log cut where it cut.
func TestRecoveryAfterDoubleCrash(t *testing.T) {
	for _, variant := range []core.Variant{core.Base, core.PSN, core.LWB} {
		t.Run(variant.String(), func(t *testing.T) {
			st := openTest(t, Config{
				Shards: 1, Capacity: 64, Strategy: GroupCommit, Batch: 8,
				Variant: variant, EvictEvery: 2, Seed: 9,
			})
			r := newSpecRun(st, 43)
			put := func(from, to, base core.Val) {
				t.Helper()
				for k := from; k < to; k++ {
					if err := r.write(k, base+k); err != nil {
						t.Fatal(err)
					}
				}
			}
			crash := func() {
				t.Helper()
				if err := r.crash(0, 1); err != nil {
					t.Fatal(err)
				}
			}
			put(0, 8, 100)
			if r.spec[0].Acked != 8 {
				t.Fatalf("%d records acknowledged, want the batch of 8", r.spec[0].Acked)
			}
			put(20, 23, 200) // left pending
			crash()
			put(40, 43, 300) // into the slots the recovery may have reclaimed
			crash()
		})
	}
}
