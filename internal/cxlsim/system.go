package cxlsim

import (
	"errors"
	"fmt"

	"cxl0/internal/coherence"
)

// Region says which memory an address belongs to.
type Region int

const (
	// HM is Host-attached Memory.
	HM Region = iota
	// HDM is Host-managed Device Memory.
	HDM
)

func (r Region) String() string {
	if r == HM {
		return "HM"
	}
	return "HDM"
}

// Addr is a cache-line address within one region.
type Addr struct {
	Region Region
	Line   int
}

func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Region, a.Line) }

// Bias is the page bias of an HDM line (§2.1).
type Bias int

const (
	// HostBias: the host owns the page; the device must ask permission.
	HostBias Bias = iota
	// DeviceBias: the device owns the page and accesses it directly.
	DeviceBias
)

func (b Bias) String() string {
	if b == HostBias {
		return "host-bias"
	}
	return "device-bias"
}

// WriteMode selects how the device's CXL IP issues persistent (MStore)
// writes to Host-attached Memory; the paper observed all three.
type WriteMode int

const (
	// CacheableWrite acquires ownership (RdOwn if needed) and flushes
	// (DirtyEvict).
	CacheableWrite WriteMode = iota
	// WeaklyOrderedWrite streams a weakly-ordered full-line
	// write-invalidate (WOWrInv/F).
	WeaklyOrderedWrite
	// NonCacheableWrite issues a plain write-invalidate (WrInv).
	NonCacheableWrite
)

// ErrNotAvailable marks CXL0 primitives no current instruction or IP flow
// can generate — the "???" cells of Table 1: RStore and LFlush on the host,
// LFlush on the device.
var ErrNotAvailable = errors.New("cxlsim: primitive not implementable on this node under CXL 1.1 (\"???\" in Table 1)")

// System is a simulated CXL 1.1 host–device pairing: one host with attached
// memory (HM), one Type-2 device with host-managed device memory (HDM),
// coherent caches on both sides, and an analyzer on the link.
type System struct {
	An *Analyzer
	// DevWriteMode selects the device IP's flow for MStore-to-HM.
	DevWriteMode WriteMode

	hostCache map[Addr]*coherence.Line
	devCache  map[Addr]*coherence.Line
	hostMem   map[Addr]uint64
	devMem    map[Addr]uint64
	bias      map[Addr]Bias
}

// NewSystem returns a system with empty caches, zeroed memories, and all
// HDM lines in host bias.
func NewSystem() *System {
	return &System{
		An:        &Analyzer{},
		hostCache: map[Addr]*coherence.Line{},
		devCache:  map[Addr]*coherence.Line{},
		hostMem:   map[Addr]uint64{},
		devMem:    map[Addr]uint64{},
		bias:      map[Addr]Bias{},
	}
}

func (s *System) hline(a Addr) *coherence.Line {
	l, ok := s.hostCache[a]
	if !ok {
		l = &coherence.Line{}
		s.hostCache[a] = l
	}
	return l
}

func (s *System) dline(a Addr) *coherence.Line {
	l, ok := s.devCache[a]
	if !ok {
		l = &coherence.Line{}
		s.devCache[a] = l
	}
	return l
}

func (s *System) memRead(a Addr) uint64 {
	if a.Region == HM {
		return s.hostMem[a]
	}
	return s.devMem[a]
}

func (s *System) memWrite(a Addr, v uint64) {
	if a.Region == HM {
		s.hostMem[a] = v
	} else {
		s.devMem[a] = v
	}
}

// writeBackInvalidate snoop-invalidates cache line l of a and writes its
// data back to memory if the line was dirty.
func (s *System) writeBackInvalidate(l *coherence.Line, a Addr) {
	if data, dirty := l.OnSnoopInvalidate(); dirty {
		s.memWrite(a, data)
	}
}

// SetBias sets the bias of an HDM line.
func (s *System) SetBias(a Addr, b Bias) {
	if a.Region != HDM {
		panic("cxlsim: bias applies to HDM lines only")
	}
	s.bias[a] = b
}

// BiasOf returns the bias of an HDM line (HostBias by default).
func (s *System) BiasOf(a Addr) Bias { return s.bias[a] }

// HostState returns the host cache state for a.
func (s *System) HostState(a Addr) coherence.State { return s.hline(a).State }

// DevState returns the device cache state for a.
func (s *System) DevState(a Addr) coherence.State { return s.dline(a).State }

// Mem returns the backing-memory value of a.
func (s *System) Mem(a Addr) uint64 { return s.memRead(a) }

// SetLine installs an initial coherence state pair for a, as the paper's
// measurement setup does ("we create all possible pairs of cache coherence
// states"). memVal seeds the backing memory; clean copies hold memVal and a
// Modified copy holds memVal+100 (a newer value, to make writeback flows
// observable).
func (s *System) SetLine(a Addr, host, dev coherence.State, memVal uint64) {
	if !coherence.PairLegal(host, dev) {
		panic(fmt.Sprintf("cxlsim: illegal state pair (%v,%v)", host, dev))
	}
	s.memWrite(a, memVal)
	h, d := s.hline(a), s.dline(a)
	*h = coherence.Line{State: host, Data: memVal}
	*d = coherence.Line{State: dev, Data: memVal}
	if host == coherence.Modified {
		h.Data = memVal + 100
	}
	if dev == coherence.Modified {
		d.Data = memVal + 100
	}
}

// CheckCoherence verifies MESI pair legality for every touched line.
func (s *System) CheckCoherence() error {
	for a, h := range s.hostCache {
		if d, ok := s.devCache[a]; ok {
			if !coherence.PairLegal(h.State, d.State) {
				return fmt.Errorf("cxlsim: illegal pair (%v,%v) at %v", h.State, d.State, a)
			}
		}
	}
	return nil
}

func (s *System) emit(op TxnOp, a Addr) {
	p, c := channelOf(op)
	s.An.Record(Transaction{Protocol: p, Channel: c, Op: op, Addr: a})
}

// ---------------------------------------------------------------------------
// Host operations (§5.1, Table 1 upper half). The host reaches HM through
// its own coherence domain (snooping the device over CXL.cache H2D) and HDM
// through CXL.mem M2S.
// ---------------------------------------------------------------------------

// reclaimBias flips a device-biased HDM line back to host bias before a
// host access: the host re-acquires page ownership (observed as an M2S
// MemRd) and the device's copy is resolved. This is the §2.1 tradeoff in
// action — device-bias gives the device fast local access at the price of
// an ownership reclaim whenever the host touches the page.
func (s *System) reclaimBias(a Addr) {
	if a.Region != HDM || s.BiasOf(a) != DeviceBias {
		return
	}
	s.emit(MemRd, a)
	d := s.dline(a)
	if d.State.Dirty() {
		s.memWrite(a, d.Data)
	}
	d.State = coherence.Invalid
	s.bias[a] = HostBias
}

// HostLoad performs a CXL0 Read from the host (an ordinary load).
func (s *System) HostLoad(a Addr) uint64 {
	s.reclaimBias(a)
	h, d := s.hline(a), s.dline(a)
	switch a.Region {
	case HM:
		// The measured host snoop-invalidates any device copy, even when it
		// already holds the line Shared.
		if d.State.Valid() {
			s.emit(SnpInv, a)
			s.writeBackInvalidate(d, a)
		}
		if !h.State.Valid() {
			h.OnFill(s.memRead(a), true) // device just invalidated: exclusive
		}
		return h.Data
	default: // HDM
		if h.State.Valid() {
			return h.Data
		}
		s.emit(MemRdData, a)
		// The device's coherence engine resolves its own copy internally:
		// a dirty copy is written back, and any owned copy downgrades to
		// Shared now that the host holds the line too.
		if d.State.Dirty() {
			s.memWrite(a, d.Data)
		}
		if d.State.Owned() {
			d.State = coherence.Shared
		}
		h.OnFill(s.memRead(a), !d.State.Valid())
		return h.Data
	}
}

// HostLStore performs a CXL0 LStore from the host (an ordinary cacheable
// store).
func (s *System) HostLStore(a Addr, v uint64) {
	s.reclaimBias(a)
	h, d := s.hline(a), s.dline(a)
	switch a.Region {
	case HM:
		if !h.State.Owned() {
			if d.State.Valid() {
				s.emit(SnpInv, a)
				s.writeBackInvalidate(d, a)
			}
			// Shared→E upgrades and local fills stay inside the host.
			h.OnGrantOwnership(s.valueOrCached(h, a))
		}
		h.OnLocalWrite(v)
	default: // HDM
		if !h.State.Owned() {
			switch h.State {
			case coherence.Invalid:
				// Store miss: read-for-ownership over CXL.mem.
				s.emit(MemRd, a)
			case coherence.Shared:
				// Ownership upgrade: the measured CPU re-fetches the line
				// data before claiming it (observed as MemRdData).
				s.emit(MemRdData, a)
			}
			if d.State.Dirty() {
				s.memWrite(a, d.Data)
			}
			d.State = coherence.Invalid
			h.OnGrantOwnership(s.memRead(a))
		}
		h.OnLocalWrite(v)
	}
}

// valueOrCached returns the line's cached data when valid, else memory.
func (s *System) valueOrCached(l *coherence.Line, a Addr) uint64 {
	if l.State.Valid() {
		return l.Data
	}
	return s.memRead(a)
}

// HostMStore performs a CXL0 MStore from the host (a non-temporal store
// followed by a fence): the value reaches physical memory before returning.
func (s *System) HostMStore(a Addr, v uint64) {
	s.reclaimBias(a)
	h, d := s.hline(a), s.dline(a)
	switch a.Region {
	case HM:
		// The NT store bypasses the cache and snoop-invalidates globally;
		// the paper observed SnpInv in every initial state.
		s.emit(SnpInv, a)
		d.OnSnoopInvalidate() // full-line write: prior dirty data is overwritten
		h.OnSnoopInvalidate()
		s.memWrite(a, v)
	default:
		s.emit(MemWr, a)
		h.OnSnoopInvalidate()
		d.OnSnoopInvalidate()
		s.memWrite(a, v)
	}
}

// HostRFlush performs a CXL0 RFlush from the host (CLFLUSH): the line is
// written back to its physical memory and no cache retains it.
func (s *System) HostRFlush(a Addr) {
	s.reclaimBias(a)
	h, d := s.hline(a), s.dline(a)
	switch a.Region {
	case HM:
		if d.State.Valid() {
			s.emit(SnpInv, a)
			s.writeBackInvalidate(d, a)
		}
		if h.State.Valid() {
			data, dirty := h.OnEvict() // host-internal writeback
			if dirty {
				s.memWrite(a, data)
			}
		}
	default:
		switch {
		case h.State.Dirty():
			data, _ := h.OnEvict()
			s.emit(MemWr, a)
			s.memWrite(a, data)
		case h.State.Valid():
			h.OnEvict()
			s.emit(MemInv, a)
		}
		if d.State.Dirty() {
			s.memWrite(a, d.Data)
		}
		d.State = coherence.Invalid
	}
}

// HostRStore is not generatable by any x86 instruction sequence (??? in
// Table 1).
func (s *System) HostRStore(a Addr, v uint64) error { return ErrNotAvailable }

// HostLFlush is not generatable by any x86 instruction sequence (??? in
// Table 1).
func (s *System) HostLFlush(a Addr) error { return ErrNotAvailable }

// ---------------------------------------------------------------------------
// Device operations (§5.1, Table 1 lower half). The device reaches HM
// through CXL.cache D2H and its own HDM either through the host (host bias)
// or directly (device bias).
// ---------------------------------------------------------------------------

// DevLoad performs a CXL0 Read from the device (a caching read).
func (s *System) DevLoad(a Addr) uint64 {
	h, d := s.hline(a), s.dline(a)
	if a.Region == HDM && s.BiasOf(a) == DeviceBias {
		// Device-bias: direct access, no link traffic.
		if !d.State.Valid() {
			if h.State.Dirty() { // stale host copy cannot exist in device bias, but be safe
				s.memWrite(a, h.Data)
				h.State = coherence.Invalid
			}
			d.OnFill(s.memRead(a), true)
		}
		return d.Data
	}
	if d.State.Valid() {
		return d.Data
	}
	s.emit(RdShared, a)
	// The host's home agent provides the data, downgrading a dirty copy.
	if h.State.Dirty() {
		s.memWrite(a, h.Data)
		h.State = coherence.Shared
	} else if h.State == coherence.Exclusive {
		h.State = coherence.Shared
	}
	d.OnFill(s.memRead(a), !h.State.Valid())
	return d.Data
}

// DevLStore performs a CXL0 LStore from the device (a caching write).
func (s *System) DevLStore(a Addr, v uint64) {
	h, d := s.hline(a), s.dline(a)
	if a.Region == HDM && s.BiasOf(a) == DeviceBias {
		if !d.State.Owned() {
			d.OnGrantOwnership(s.memRead(a))
		}
		d.OnLocalWrite(v)
		return
	}
	if !d.State.Owned() {
		s.emit(RdOwn, a)
		if h.State.Valid() {
			s.writeBackInvalidate(h, a) // host-side handling of RdOwn
		}
		d.OnGrantOwnership(s.memRead(a))
	}
	d.OnLocalWrite(v)
}

// DevRStore performs a CXL0 RStore from the device: the value is pushed
// into the remote (host) cache. For HM this is the dedicated ItoMWr flow;
// for the device's own HDM it degenerates to a caching write (Table 1).
func (s *System) DevRStore(a Addr, v uint64) {
	h, d := s.hline(a), s.dline(a)
	if a.Region == HM {
		s.emit(ItoMWr, a)
		d.OnSnoopInvalidate()
		h.OnSnoopInvalidate()
		h.OnGrantOwnership(v)
		h.OnLocalWrite(v) // line lands Modified in the host cache
		return
	}
	s.DevLStore(a, v)
}

// DevMStore performs a CXL0 MStore from the device: the value reaches
// physical memory before returning.
//
// For HM the flow depends on the IP's write mode: a cacheable write
// acquires ownership and immediately flushes (RdOwn + DirtyEvict), a
// weakly-ordered write streams WOWrInv/F, and a non-cacheable write issues
// WrInv. For host-biased HDM the device writes its own memory directly; if
// the host holds the line, the host's extraction shows up as an M2S MemRd.
func (s *System) DevMStore(a Addr, v uint64) {
	h, d := s.hline(a), s.dline(a)
	if a.Region == HM {
		switch s.DevWriteMode {
		case WeaklyOrderedWrite, NonCacheableWrite:
			op := WOWrInvF
			if s.DevWriteMode == NonCacheableWrite {
				op = WrInv
			}
			s.emit(op, a)
			h.OnSnoopInvalidate() // full-line write-invalidate
			d.OnSnoopInvalidate()
			s.memWrite(a, v)
		default: // CacheableWrite
			if !d.State.Owned() {
				s.emit(RdOwn, a)
				if h.State.Valid() {
					s.writeBackInvalidate(h, a)
				}
				d.OnGrantOwnership(s.memRead(a))
			}
			d.OnLocalWrite(v)
			s.emit(DirtyEvict, a)
			data, _ := d.OnEvict()
			s.memWrite(a, data)
		}
		return
	}
	// HDM: direct write into the device's own memory. Under host bias an
	// outstanding host copy is extracted first, observed as M2S MemRd.
	if s.BiasOf(a) == HostBias && h.State.Valid() {
		s.emit(MemRd, a)
		h.OnSnoopInvalidate() // full-line write: host data superseded
	}
	d.OnSnoopInvalidate()
	s.memWrite(a, v)
}

// DevRFlush performs a CXL0 RFlush from the device (CLFlush): the line is
// written back to its physical memory.
func (s *System) DevRFlush(a Addr) {
	h, d := s.hline(a), s.dline(a)
	if a.Region == HM {
		switch {
		case d.State.Dirty():
			data, _ := d.OnEvict()
			s.emit(DirtyEvict, a)
			s.memWrite(a, data)
		case d.State.Valid():
			d.OnEvict()
			s.emit(CleanEvict, a)
		}
		return
	}
	// HDM: the device's own writeback is internal; a host-held copy must be
	// extracted through the host, observed as M2S MemRd.
	if s.BiasOf(a) == HostBias && h.State.Valid() {
		s.emit(MemRd, a)
		s.writeBackInvalidate(h, a)
	}
	if d.State.Valid() {
		data, dirty := d.OnEvict()
		if dirty {
			s.memWrite(a, data)
		}
	}
}

// DevLFlush is not generatable: the proprietary IP offers no control to
// issue it (??? in Table 1).
func (s *System) DevLFlush(a Addr) error { return ErrNotAvailable }
