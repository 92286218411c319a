package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"cxl0/internal/core"
	"cxl0/internal/faults"
	"cxl0/internal/kv"
	"cxl0/internal/pool"
	"cxl0/internal/workload"
)

// fillSamples is how many times per rep the shards' log fill is sampled
// for kv.log_fill_max; every rep samples, so traced and untraced reps do
// identical work.
const fillSamples = 64

// maxFailures aborts a rep early: past this many failed operations the
// run is broken and finishing it would only waste the time budget.
const maxFailures = 100

// repOut is what one rep (fresh DB: set-up, measured phase, audit)
// measured.
type repOut struct {
	// Host clock.
	SetupS, WallS, AllocsOp, LiveHeapMB float64
	// Det holds every value that must repeat bit-for-bit across reps of
	// one seed: the sim-clock metrics and the exact counts.
	Det map[string]float64
	// Failed counts operations that returned an error or a value the
	// model rejects; Err is the first such failure.
	Failed int
	Err    string

	rt *pool.Router // the traced rep's live DB, kept for the host probes
}

// driver is one rep's client: a single goroutine issuing one operation at
// a time (closed loop, one client) and checking every result against its
// own model of the key space.
type driver struct {
	w  workloadDef
	rt *pool.Router
	db kv.DB

	// cur is the last value written per key (0 = absent); keys are dense,
	// [0, len(cur)). older is used only under the commit pipeline, where
	// a read is watermark-gated and may serve any value from the last
	// acked one on: it lists a key's superseded values that a read may
	// still return, oldest first, and shrinks as reads prove progress.
	cur   []core.Val
	older [][]core.Val
	// window[s] lists, for shard s, the writes not yet covered by a
	// durable ack: what a crash of s may legitimately take back.
	window []map[core.Val]*unacked

	nRead, nUpdate, nInsert, nScan int
	scanReturned                   int
	readLat                        []float64 // sim ns per served Get/Scan
	clkA, clkB                     []float64
	recoveries                     []kv.RecoveryStats
	lostMidRun                     int
	crashNext                      int
	fillMax                        float64
	failed                         int
	firstErr                       string
}

// unacked is one key's state inside a shard's un-acked window: the value
// it had before the window opened and the values written since.
type unacked struct {
	old  core.Val
	vals []core.Val
}

func (d *driver) fail(format string, args ...any) {
	d.failed++
	if d.firstErr == "" {
		d.firstErr = fmt.Sprintf(format, args...)
	}
}

func (d *driver) pipelined() bool {
	c := d.w.Pool.Store
	return c.PipelineDepth > 1 && c.Strategy.Batched()
}

// clocks snapshots every pooled cluster's simulated clock into dst.
func (d *driver) clocks(dst []float64) {
	for c := range dst {
		dst[c] = d.rt.Cluster(c).NowNS()
	}
}

// sampleRead folds one bracketed read into the sim read-latency
// population: pooled clusters run in parallel, so a fan-out's latency is
// its slowest leg, as workload.Run accounts it.
func (d *driver) sampleRead() {
	makespan := 0.0
	for c := range d.clkB {
		if dt := d.clkB[c] - d.clkA[c]; dt > makespan {
			makespan = dt
		}
	}
	d.readLat = append(d.readLat, makespan)
}

// checkRead validates a served value of key against the model.
func (d *driver) checkRead(i int, key, got core.Val) {
	if key < 0 || int(key) >= len(d.cur) {
		d.fail("op %d: read returned unknown key %d", i, key)
		return
	}
	if got == d.cur[key] {
		if d.older != nil {
			d.older[key] = d.older[key][:0]
		}
		return
	}
	if d.older != nil {
		old := d.older[key]
		for j := len(old) - 1; j >= 0; j-- {
			if old[j] == got {
				d.older[key] = old[j:]
				return
			}
		}
	}
	d.fail("op %d: key %d read %d, model says %d", i, key, got, d.cur[key])
}

func (d *driver) put(i int, key, val core.Val) {
	ack, err := d.db.Put(key, val)
	if err != nil {
		d.fail("op %d: put %d: %v", i, key, err)
		return
	}
	for int(key) >= len(d.cur) {
		d.cur = append(d.cur, 0)
		if d.older != nil {
			d.older = append(d.older, nil)
		}
	}
	if d.older != nil {
		d.older[key] = append(d.older[key], d.cur[key])
	}
	if d.w.CrashEvery > 0 {
		win := d.window[ack.Shard]
		if ack.Durable {
			clear(win)
		} else if u := win[key]; u != nil {
			u.vals = append(u.vals, val)
		} else {
			win[key] = &unacked{old: d.cur[key], vals: []core.Val{val}}
		}
	}
	d.cur[key] = val
}

func (d *driver) get(i int, key core.Val) {
	d.clocks(d.clkA)
	v, found, err := d.db.Get(key)
	if err != nil {
		d.fail("op %d: get %d: %v", i, key, err)
		return
	}
	d.clocks(d.clkB)
	d.sampleRead()
	if !found {
		v = 0
	}
	d.checkRead(i, key, v)
}

func (d *driver) scan(i int, lo core.Val, limit int) {
	d.clocks(d.clkA)
	pairs, err := d.db.Scan(lo, math.MaxInt64, limit)
	if err != nil {
		d.fail("op %d: scan %d: %v", i, lo, err)
		return
	}
	d.clocks(d.clkB)
	d.sampleRead()
	d.scanReturned += len(pairs)
	// Keys are dense and never deleted, so the scan must return exactly
	// lo, lo+1, ... up to the limit or the end of the key space.
	want := len(d.cur) - int(lo)
	if want > limit {
		want = limit
	}
	if want < 0 {
		want = 0
	}
	if len(pairs) != want {
		d.fail("op %d: scan from %d returned %d pairs, model says %d", i, lo, len(pairs), want)
		return
	}
	for j, p := range pairs {
		if p.Key != lo+core.Val(j) {
			d.fail("op %d: scan from %d: pair %d has key %d", i, lo, j, p.Key)
			return
		}
		d.checkRead(i, p.Key, p.Val)
	}
}

// sampleFill folds the shards' current log fill into the run's maximum.
func (d *driver) sampleFill() {
	for _, fill := range d.db.Metrics().PerShardFill {
		d.fillMax = math.Max(d.fillMax, fill)
	}
}

// crashRecover crashes and recovers the next shard in rotation. When the
// recovery reports lost or dropped records, the writes of that shard's
// un-acked window are re-read: each key must hold its pre-window value or
// one written since — never garbage — and the model adopts what it finds.
func (d *driver) crashRecover(i int) {
	shard := d.crashNext % d.db.NumShards()
	d.crashNext++
	d.db.Crash(shard)
	stats, err := d.db.Recover(shard)
	if err != nil {
		d.fail("op %d: recover shard %d: %v", i, shard, err)
		return
	}
	d.recoveries = append(d.recoveries, stats)
	d.lostMidRun += stats.Lost
	win := d.window[shard]
	if stats.Lost+stats.DroppedPending > 0 && len(win) > 0 {
		keys := make([]core.Val, 0, len(win))
		for k := range win {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		got, err := d.db.MultiGet(keys)
		if err != nil {
			d.fail("op %d: multiget after recovering shard %d: %v", i, shard, err)
			return
		}
		for _, l := range got {
			v := l.Val
			if !l.Found {
				v = 0
			}
			u := win[l.Key]
			ok := v == u.old
			for _, w := range u.vals {
				ok = ok || v == w
			}
			if !ok {
				d.fail("op %d: key %d holds %d after recovery: neither old %d nor one of %v", i, l.Key, v, u.old, u.vals)
			}
			d.cur[l.Key] = v
		}
	}
	// Whatever survived the recovery was re-persisted by it.
	clear(win)
}

// audit is the untimed durability check after the measured phase: every
// shard is crashed and recovered, then every key is read back and must
// equal the model. It returns the recoveries it performed: with the
// mid-run ones they are the workload's recovery cost.
func (d *driver) audit() []kv.RecoveryStats {
	if err := d.db.Sync(); err != nil {
		d.fail("audit: sync: %v", err)
	}
	var out []kv.RecoveryStats
	for s := 0; s < d.db.NumShards(); s++ {
		d.db.Crash(s)
		stats, err := d.db.Recover(s)
		if err != nil {
			d.fail("audit: recover shard %d: %v", s, err)
			continue
		}
		if stats.Lost+stats.DroppedPending > 0 {
			d.fail("audit: shard %d lost %d and dropped %d records after Sync", s, stats.Lost, stats.DroppedPending)
		}
		out = append(out, stats)
	}
	for k, want := range d.cur {
		v, found, err := d.db.Get(core.Val(k))
		if err != nil {
			d.fail("audit: get %d: %v", k, err)
			continue
		}
		if !found {
			v = 0
		}
		if v != want {
			d.fail("audit: key %d reads %d after crash+recover, model says %d", k, v, want)
		}
	}
	return out
}

// primCounts sums the clusters' per-primitive counters and returns them
// with the number of eviction attempts they imply: memsim injects one
// after every EvictEvery-th primitive other than GPF.
func primCounts(rt *pool.Router, evictEvery int) (counts map[core.Op]uint64, evictions uint64) {
	counts = map[core.Op]uint64{}
	for c := 0; c < rt.NumClusters(); c++ {
		var stepped uint64
		for op, n := range rt.Cluster(c).Cluster().Stats() {
			counts[op] += n
			if op != core.OpGPF {
				stepped += n
			}
		}
		if evictEvery > 0 {
			evictions += stepped / uint64(evictEvery)
		}
	}
	return counts, evictions
}

// runRep opens a fresh DB, preloads it and runs the workload's fixed op
// stream for seed. tr is nil for an untraced rep; audit adds the untimed
// durability audit after the measured phase.
func runRep(w workloadDef, seed int64, tr *tracer, audit bool) (repOut, error) {
	ops := w.Ops
	cfg := w.Pool

	// Set-up: open, preload, commit, zero the counters.
	t0 := time.Now()
	rt, err := pool.Open(cfg)
	if err != nil {
		return repOut{}, err
	}
	d := &driver{
		w: w, rt: rt, db: rt,
		cur:     make([]core.Val, w.Spec.Keys, w.Spec.Keys+ops),
		readLat: make([]float64, 0, ops),
		clkA:    make([]float64, rt.NumClusters()),
		clkB:    make([]float64, rt.NumClusters()),
	}
	for k := range d.cur {
		d.cur[k] = core.Val(1 + k)
		if _, err := d.db.Put(core.Val(k), d.cur[k]); err != nil {
			return repOut{}, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	if err := d.db.Sync(); err != nil {
		return repOut{}, err
	}
	d.db.ResetMetrics()
	if d.pipelined() {
		d.older = make([][]core.Val, len(d.cur), cap(d.cur))
	}
	if w.CrashEvery > 0 {
		d.window = make([]map[core.Val]*unacked, d.db.NumShards())
		for s := range d.window {
			d.window[s] = map[core.Val]*unacked{}
		}
	}
	gen := workload.NewGenerator(w.Spec, seed)
	out := repOut{SetupS: time.Since(t0).Seconds()}

	// Measured phase: the op loop plus the final Sync.
	if tr != nil {
		tr.attach(rt)
	}
	primsBefore, evictBefore := primCounts(rt, cfg.Store.EvictEvery)
	clockBefore := rt.NowNS()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocsBefore := ms.Mallocs
	start := time.Now()
	fillEvery := max(1, ops/fillSamples)
	for i := 0; i < ops && d.failed < maxFailures; i++ {
		if w.CrashEvery > 0 && i > 0 && i%w.CrashEvery == 0 {
			c0 := tr.now()
			d.crashRecover(i)
			tr.span(spanRecover, i, c0)
			tr.drain(i, spanRecover)
		}
		if w.RebalanceEvery > 0 && i > 0 && i%w.RebalanceEvery == 0 {
			c0 := tr.now()
			if _, err := d.db.Rebalance(); err != nil {
				d.fail("op %d: rebalance: %v", i, err)
			}
			tr.span(spanRebalance, i, c0)
			tr.drain(i, spanRebalance)
		}
		if i%fillEvery == 0 {
			d.sampleFill()
		}
		g0 := tr.now()
		op := gen.Next()
		tr.span(spanNext, i, g0)
		c0 := tr.now()
		var call spanName
		switch op.Kind {
		case workload.OpRead:
			d.nRead++
			d.get(i, core.Val(op.Key))
			call = spanGet
		case workload.OpUpdate:
			d.nUpdate++
			d.put(i, core.Val(op.Key), core.Val(op.Value))
			call = spanPut
		case workload.OpInsert:
			d.nInsert++
			d.put(i, core.Val(op.Key), core.Val(op.Value))
			call = spanPut
		case workload.OpScan:
			d.nScan++
			d.scan(i, core.Val(op.Key), op.ScanLen)
			call = spanScan
		}
		tr.span(call, i, c0)
		tr.drain(i, call)
	}
	s0 := tr.now()
	if err := d.db.Sync(); err != nil {
		d.fail("final sync: %v", err)
	}
	tr.span(spanSync, ops, s0)
	out.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	out.AllocsOp = float64(ms.Mallocs-mallocsBefore) / float64(ops)
	tr.drain(ops, spanSync)
	d.sampleFill()

	m := d.db.Metrics()
	primsAfter, evictAfter := primCounts(rt, cfg.Store.EvictEvery)
	simNS := rt.NowNS() - clockBefore
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.LiveHeapMB = float64(ms.HeapAlloc) / (1 << 20)

	if tr != nil {
		tr.detach(rt)
		out.rt = rt
	}
	out.Det = d.deterministic(ops, m, primsBefore, primsAfter, evictAfter-evictBefore, simNS)
	if audit {
		recoveries := append(d.recoveries, d.audit()...)
		total := 0.0
		for _, r := range recoveries {
			total += r.SimNS
		}
		out.Det["sim_recovery_mean_ns"] = total / float64(len(recoveries))
	}
	out.Failed, out.Err = d.failed, d.firstErr
	return out, nil
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// deterministic derives every metric that lives on the simulated clock or
// is an exact count: identical inputs must reproduce all of them exactly.
func (d *driver) deterministic(ops int, m kv.Metrics, before, after map[core.Op]uint64,
	evictions uint64, simNS float64) map[string]float64 {
	det := map[string]float64{}

	// End to end, simulated clock.
	det["sim_throughput_ops_s"] = ratio(float64(ops), m.MaxBusyNS()*1e-9)
	det["sim_busy_ns_per_op"] = m.TotalBusyNS() / float64(ops)
	det["sim_read_mean_ns"] = mean(d.readLat)
	det["sim_read_p99_ns"] = faults.PercentileNS(d.readLat, 99)
	det["n_reads"] = float64(len(d.readLat))
	det["sim_ack_p50_ns"] = faults.PercentileNS(m.WriteLatencies, 50)
	det["sim_ack_p95_ns"] = faults.PercentileNS(m.WriteLatencies, 95)
	det["n_acks"] = float64(len(m.WriteLatencies))

	// memsim: exact primitive counts of the measured phase.
	prim := func(op core.Op) float64 { return float64(after[op] - before[op]) }
	var prims float64
	for op := range after {
		prims += prim(op)
	}
	det["memsim.n_load"] = prim(core.OpLoad)
	det["memsim.n_lstore"] = prim(core.OpLStore)
	det["memsim.n_rstore"] = prim(core.OpRStore)
	det["memsim.n_mstore"] = prim(core.OpMStore)
	det["memsim.n_lflush"] = prim(core.OpLFlush)
	det["memsim.n_rflush"] = prim(core.OpRFlush)
	det["memsim.n_rflushrange"] = prim(core.OpRFlushRange)
	det["memsim.n_gpf"] = prim(core.OpGPF)
	det["memsim.prims_per_op"] = prims / float64(ops)
	det["memsim.evictions"] = float64(evictions)
	det["memsim.sim_ns_per_prim"] = ratio(simNS, prims)

	// kv.
	stores := prim(core.OpLStore) + prim(core.OpRStore) + prim(core.OpMStore)
	flushes := prim(core.OpLFlush) + prim(core.OpRFlush) + prim(core.OpRFlushRange) + prim(core.OpGPF)
	det["kv.acked_writes"] = float64(m.Acked)
	det["kv.commits"] = float64(m.Commits)
	det["kv.max_in_flight"] = float64(m.MaxInFlight)
	det["kv.write_amp"] = ratio(stores, 3*float64(m.Acked))
	det["kv.flushes_per_acked_write"] = ratio(flushes, float64(m.Acked))
	appended, live := 0.0, 0.0
	for s, fill := range m.PerShardFill {
		appended += math.Round(fill * float64(d.w.Pool.Store.Capacity))
		live += float64(m.PerShardLive[s])
	}
	det["kv.space_amp"] = ratio(appended, live)
	det["kv.log_fill_max"] = d.fillMax
	det["kv.cache_hit_rate"] = ratio(float64(m.CacheHits), float64(m.CacheHits+m.CacheMisses))
	det["kv.cache_invalidations"] = float64(m.CacheInvalidations)
	det["kv.speculative_fills"] = float64(m.SpeculativeFills)
	det["kv.scanned_pairs_per_scan"] = ratio(float64(m.ScannedPairs), float64(d.nScan))
	det["kv.compactions"] = float64(m.Compactions)
	det["kv.reclaimed_slots"] = float64(m.ReclaimedSlots)
	det["kv.compaction_sim_ns_mean"] = mean(m.CompactionNS)
	det["kv.compaction_busy_share"] = ratio(sum(m.CompactionNS), m.TotalBusyNS())
	det["kv.recoveries"] = float64(m.Recoveries)
	recMax := 0.0
	for _, r := range m.RecoveryNS {
		recMax = math.Max(recMax, r)
	}
	det["kv.recovery_sim_ns_max"] = recMax
	det["kv.dropped_pending"] = float64(m.DroppedPending)
	det["kv.records_lost"] = float64(d.lostMidRun)
	det["kv.migrations"] = float64(m.Migrations)
	det["kv.migrated_records"] = float64(m.MigratedRecords)
	det["kv.max_mean_busy"] = m.MaxMeanBusyRatio()

	// pool.
	det["pool.scan_discarded_pairs"] = float64(m.ScanDiscardedPairs)
	det["pool.scan_useful_ratio"] = ratio(float64(d.scanReturned), float64(d.scanReturned)+float64(m.ScanDiscardedPairs))
	perCluster := make([]float64, d.rt.NumClusters())
	shardsPer := len(m.PerShardBusyNS) / len(perCluster)
	maxBusy := 0.0
	for s, b := range m.PerShardBusyNS {
		perCluster[s/shardsPer] += b
	}
	for _, b := range perCluster {
		maxBusy = math.Max(maxBusy, b)
	}
	det["pool.cluster_busy_skew"] = ratio(maxBusy, mean(perCluster))

	// workload.
	det["workload.n_read"] = float64(d.nRead)
	det["workload.n_update"] = float64(d.nUpdate)
	det["workload.n_insert"] = float64(d.nInsert)
	det["workload.n_scan"] = float64(d.nScan)
	return det
}
