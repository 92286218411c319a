package latency

import "cxl0/internal/core"

// CXL0Cost returns the modeled cost, in nanoseconds, of one CXL0 primitive
// issued in a symmetric future CXL system (every primitive available on
// every node, as §4's "future configurations" anticipate). local says
// whether the issuing machine owns the accessed line.
//
// The runtime (package memsim) charges these costs to its simulated clock,
// which is what makes the §6.1 performance comparisons between persistence
// strategies meaningful: an MStore-everything transformation pays the full
// remote-memory round trip on every write, while FliT's LStore+RFlush pays
// it only at flush points, and the owner-local optimisation replaces remote
// flushes with local ones.
func (m *Model) CXL0Cost(op core.Op, local bool) float64 {
	return m.CXL0CostCached(op, local, false)
}

// CXL0CostCached refines CXL0Cost with line hotness: cached says whether
// the issuing machine's cache already holds the line, in which case loads
// and the read half of RMWs are cache hits rather than full fills. Flushes
// and MStores always pay the full propagation path.
func (m *Model) CXL0CostCached(op core.Op, local, cached bool) float64 {
	c := &m.C
	rtt := 2 * c.LinkHop
	localPersist := c.HostDRAM + c.FenceLocal
	remotePersist := rtt + c.DevMem + c.FenceLocal + c.DevIPOverhead
	// load is a load's cost, and the read half of an RMW's.
	load := rtt + c.DevMem
	switch {
	case cached:
		load = c.CacheHit
	case local:
		load = c.HostDRAM
	}

	switch op {
	case core.OpLoad:
		return load
	case core.OpLStore:
		return c.HostWriteBuffer
	case core.OpRStore:
		if local {
			return c.HostWriteBuffer // RStore by the owner ≡ LStore
		}
		return rtt // push into the owner's cache
	case core.OpMStore:
		if local {
			return localPersist
		}
		return remotePersist
	case core.OpLFlush:
		if local {
			return localPersist // owner's LFlush drains to local memory
		}
		return rtt // drains into the owner's cache
	case core.OpRFlush:
		if local {
			// Even a local RFlush must confirm that no remote cache holds
			// the line — one fabric round trip on top of the local drain.
			// (This is exactly the cost the §6.1 owner-local LFlush
			// optimisation removes.)
			return localPersist + rtt
		}
		return remotePersist
	case core.OpGPF:
		// Two-phase global drain: several fabric round trips.
		return 4*rtt + c.DevMem + c.HostDRAM
	case core.OpRFlushRange:
		// Callers with a real range should use RFlushRangeCost (it needs
		// the per-device line counts); a one-line range prices like RFlush.
		return m.RFlushRangeCost(1, local)
	case core.OpLRMW:
		// Line pull (or hit) plus locked update in the local cache.
		return load + c.FenceLocal
	case core.OpRRMW:
		if local {
			return load + c.FenceLocal
		}
		return load + rtt
	case core.OpMRMW:
		if local {
			return load + localPersist
		}
		return load + remotePersist
	case core.OpCrash:
		// A crash is an event, not a fabric command: it costs nothing on
		// the simulated clock (outage windows are measured by the fault
		// engine, not priced here).
		return 0
	}
	return 0
}

// RFlushRangeCost returns the modeled cost of the portion of one ranged
// persistent flush (core.OpRFlushRange) that lands on a single owning
// device: lines is how many of the range's cache lines that device owns,
// and local says whether the issuing machine is that device.
//
// The command cost — the fabric round trip, the device's flush-IP overhead
// and the completion fence — is paid once per device rather than once per
// line, so a ranged flush amortizes exactly the part of RFlush's cost that
// repeating RFlush per line cannot: RFlushRangeCost(1, local) equals
// CXL0Cost(OpRFlush, local), and each additional line adds only the
// device-side media write. Crucially the total never depends on how many
// machines the fabric has — that is what makes commits built on it
// shard-local, where GPF's global drain stalls every device.
func (m *Model) RFlushRangeCost(lines int, local bool) float64 {
	if lines < 1 {
		lines = 1
	}
	c := &m.C
	rtt := 2 * c.LinkHop
	if local {
		// Like a local RFlush, the device must still confirm over the
		// fabric that no remote cache holds any line of its range (one
		// round trip), then drains each line to its local medium.
		return rtt + c.FenceLocal + float64(lines)*c.HostDRAM
	}
	// One flush command round trip and one fence + flush-IP overhead for
	// the whole range; the device then writes each line to its media.
	return rtt + c.FenceLocal + c.DevIPOverhead + float64(lines)*c.DevMem
}
