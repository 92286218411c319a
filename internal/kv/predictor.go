package kv

// The speculative prefetcher (Config.Prefetch, requires ReadCache > 0).
// Two cheap signals over the served-read stream, per CXL-SpecKV's
// prediction tier (PAPERS.md):
//
//   - A per-shard Markov successor table: "after key A this client read
//     key B". One successor per key, last-writer-wins — the zipfian and
//     latest-biased YCSB mixes revisit the same short chains constantly,
//     so even a depth-1 chain predicts well.
//   - A scan-run detector: consecutive reads of adjacent keys (key ==
//     last+1) signal a sequential sweep; once a run is established the
//     next keys in line are prefetched ahead of it.
//
// Predictions turn into *speculative reads* that warm the read cache:
// the store resolves the predicted key against the shard's own
// authoritative Go-side mirror of the medium (the same bookkeeping
// recovery trusts), so the fill can never observe a torn or stale
// value, and charges no simulated time — the model is a prefetch fully
// overlapped with the foreground operation on spare fabric bandwidth,
// exactly like the flush/append overlap of the commit pipeline
// (docs/pipeline.md). A speculative fill is a plain cache entry like any
// demand fill: every invalidation path snoops it the same
// way, so a wrong or stale speculation can cost capacity, never
// correctness (docs/caching.md).
//
// All state is bounded and deterministic: fixed-size successor tables
// (key tables, keytable.go) are cleared wholesale when full (no eviction
// policy that would need to walk one), and the tables are only ever
// indexed, never ranged over.

import (
	"cxl0/internal/core"
	"cxl0/internal/obs"
)

const (
	// maxSuccessors bounds each shard's Markov table; at the bound the
	// table resets wholesale, which is deterministic and keeps the
	// steady-state working set (the hot chains re-form in a few reads).
	maxSuccessors = 1024
	// scanRunThreshold is how many consecutive adjacent reads establish
	// a sequential run worth prefetching ahead of.
	scanRunThreshold = 3
	// scanRunAhead is how many keys ahead of an established run the
	// prefetcher warms.
	scanRunAhead = 2
)

// predictor learns the read stream and proposes keys to prefetch. All
// state is guarded by the owning store's mu: every method is ...Locked,
// called with the store lock held.
type predictor struct {
	// succ[shard] takes a key to the key the client read next;
	// last[shard] is the previous served read on that shard (-1 before
	// the first).
	//cxl0:guarded-by mu
	succ []keyTable
	//cxl0:guarded-by mu
	last []core.Val
	// runKey/runLen track the store-wide sequential-scan run: runLen
	// consecutive reads ending at runKey with each key one above the
	// previous.
	//cxl0:guarded-by mu
	runKey core.Val
	//cxl0:guarded-by mu
	runLen int
	// proposed is the buffer predictLocked and aheadLocked return their keys
	// in, so that proposing them allocates nothing; a result lives until
	// the next call of either.
	//cxl0:guarded-by mu
	proposed [1 + scanRunAhead]core.Val
}

// newPredictor builds a predictor for a store with shards shards.
//
//cxl0:locked mu
func newPredictor(shards int) *predictor {
	p := &predictor{
		succ:   make([]keyTable, shards),
		last:   make([]core.Val, shards),
		runKey: -1,
	}
	for i := range p.succ {
		p.succ[i] = newKeyTable(maxSuccessors)
		p.last[i] = -1
	}
	return p
}

// observeLocked feeds one served read into the model.
func (p *predictor) observeLocked(shard int, key core.Val) {
	if prev := p.last[shard]; prev >= 0 && prev != key {
		m := &p.succ[shard]
		if m.len() >= maxSuccessors { // only a full table needs the probe
			if _, ok := m.get(prev); !ok {
				m.clear()
			}
		}
		m.set(prev, key)
	}
	p.last[shard] = key
	if p.runKey >= 0 && key == p.runKey+1 {
		p.runLen++
	} else {
		p.runLen = 1
	}
	p.runKey = key
}

// observeReadLocked feeds one served read into the prefetcher and issues
// the speculative reads it proposes — the read path's tail call, a no-op
// unless Config.Prefetch is on.
func (s *Store) observeReadLocked(sh *shard, key core.Val) {
	if s.pred == nil {
		return
	}
	s.pred.observeLocked(sh.id, key)
	s.prefetchLocked(s.pred.predictLocked(sh.id, key))
}

// prefetchLocked issues non-blocking speculative reads for keys, warming
// the read cache ahead of demand. A speculative read resolves the key
// exactly like getLocked — current routing and the view's index, which
// under the pipeline holds only acknowledged writes — but reads the
// shard's authoritative Go-side record mirror instead of paying a
// simulated Load: the model is a prefetch fully overlapped with the
// foreground operation on spare fabric bandwidth, so it charges no
// simulated time and cannot perturb the timeline (a cache-off run and a
// prefetch-on run issue the same Loads for different costs, never
// different fabric traffic). Keys that are unroutable (down,
// partitioned), absent, or already cached are skipped; the cache probe
// that skips a cached key also finds the slot its fill takes. Callers hold
// a predictor, which only exists over a cache.
func (s *Store) prefetchLocked(keys []core.Val) {
	for _, k := range keys {
		if k < 0 {
			continue
		}
		at, cached := s.cache.probeLocked(k)
		if cached {
			continue
		}
		sh := s.shards[s.shardOf(k)]
		if sh.unavailable() != nil {
			continue
		}
		// The same view as getLocked: speculate only on the
		// state a demand read would be served.
		slot, ok := sh.view.visible(k)
		if !ok {
			continue
		}
		s.cache.insertLocked(at, k, sh.mirrorVal(slot), true)
		now := s.cluster.NowNS()
		s.rec.Mark(obs.KindSpeculative, sh.id, 0, now, now)
	}
}

// predictLocked proposes the keys to prefetch after serving key on
// shard: the learned successor, then the run continuation when a
// sequential sweep is established. Order is deterministic; duplicates
// and the key itself are filtered by the prefetch path's cache probe.
func (p *predictor) predictLocked(shard int, key core.Val) []core.Val {
	out := p.proposed[:0]
	if next, ok := p.succ[shard].get(key); ok && next != key {
		out = append(out, next)
	}
	if p.runLen >= scanRunThreshold && key == p.runKey {
		out = appendAhead(out, key)
	}
	return out
}

// aheadLocked returns the scanRunAhead keys just past last, the keys a
// scan prefetches ahead of a continuing sweep.
func (p *predictor) aheadLocked(last core.Val) []core.Val {
	return appendAhead(p.proposed[:0], last)
}

// appendAhead appends the scanRunAhead keys after key to out.
func appendAhead(out []core.Val, key core.Val) []core.Val {
	for i := core.Val(1); i <= scanRunAhead; i++ {
		out = append(out, key+i)
	}
	return out
}
