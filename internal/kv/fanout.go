package kv

import (
	"cxl0/internal/core"
	"cxl0/internal/obs"
)

// The calls over several stores — ScanStores, MultiGetStores, ApplyStores
// and MetricsOf — serve stores that partition the keyspace: one store
// (the Store method is the one-store case) or a pool's clusters. Each
// holds every store's lock (lockStores) to its end, so it is one cut of
// the stores, and numbers their shards one after another. The first three
// run a leg on each store with a part in the call, in store order; an
// error ends the call with the index of its store (-1 if none), the
// earlier legs staying done.

// leg is a store's part of the call in progress, kept on the store so a
// call allocates nothing per store: a range read's picks (and, on the
// first store, its live runs), or the input positions of the store's keys
// or ops; then whether it ran to its end, reporting n over its span.
type leg struct {
	picks          []pick
	runs           []run
	pos            []int
	ran            bool
	n              int
	startNS, endNS float64
}

// lockStores takes every store's lock in slice order, the one order in
// which anything holds several; unlockStores releases them.
func lockStores(stores []*Store) {
	for _, st := range stores {
		st.mu.Lock()
	}
}

func unlockStores(stores []*Store) {
	for _, st := range stores {
		st.mu.Unlock()
	}
}

// route appends the position of each of n inputs to the leg of the
// store its key routes to.
func route(stores []*Store, n int, key func(i int) core.Val) {
	for _, st := range stores {
		st.leg.pos = st.leg.pos[:0]
	}
	for i := range n {
		st := stores[StoreOf(key(i), len(stores))]
		st.leg.pos = append(st.leg.pos, i)
	}
}

func (s *Store) endLeg(n int) { s.leg.ran, s.leg.n, s.leg.endNS = true, n, s.cluster.NowNS() }

// fanOut is a call's parent span under a pool's recorder (nil for a
// Store's own call) and its start on the stores' summed clock.
type fanOut struct {
	rec     *obs.Recorder
	span    uint64
	startNS float64
}

func openFanOut(stores []*Store, rec *obs.Recorder) fanOut {
	for _, st := range stores {
		st.leg.ran = false
	}
	return fanOut{rec, rec.NewSpan(), summedNow(stores, rec)}
}

// publish is the one fan-out rule, kept on every return path: after the
// last store ran, one FanOutLeg per leg that ran to its end, in store
// order, then the parent span over the call's n items.
func (f fanOut) publish(stores []*Store, op obs.Op, n int) {
	if f.rec == nil {
		return
	}
	for c, st := range stores {
		if st.leg.ran {
			f.rec.FanOutLeg(f.span, op, c, st.leg.startNS, st.leg.endNS, st.leg.n)
		}
	}
	f.rec.FanOut(f.span, op, f.startNS, summedNow(stores, f.rec), n)
}

// summedNow is the stores' summed clock, read only under a recorder.
func summedNow(stores []*Store, rec *obs.Recorder) float64 {
	if rec == nil {
		return 0
	}
	total := 0.0
	for _, st := range stores {
		total += st.cluster.NowNS()
	}
	return total
}
