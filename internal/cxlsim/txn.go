// Package cxlsim is a transaction-level simulator of a CXL 1.1 host–device
// pairing (Fig. 4a of the paper): an x86-style host and a Type-2 accelerator
// sharing Host-attached Memory (HM) and Host-managed Device Memory (HDM) in
// a MESI coherence domain. The host reaches HDM via CXL.mem; the device
// reaches HM via CXL.cache.
//
// The package replaces the paper's physical testbed (x86 CPU + Intel FPGA
// CXL IP + Teledyne LeCroy T516 protocol analyzer): operations issued
// through the System API drive MESI line-state machines and emit the CXL
// link transactions the paper observed in §5.1; an embedded Analyzer
// records them, which is how Table 1 is regenerated.
package cxlsim

import "fmt"

// Protocol is the CXL sub-protocol a transaction belongs to.
type Protocol int

const (
	// CacheProto is CXL.cache (device coherence protocol).
	CacheProto Protocol = iota
	// MemProto is CXL.mem (host memory protocol).
	MemProto
)

func (p Protocol) String() string {
	if p == CacheProto {
		return "CXL.cache"
	}
	return "CXL.mem"
}

// Channel is the direction of a transaction.
type Channel int

const (
	// D2H is CXL.cache device-to-host.
	D2H Channel = iota
	// H2D is CXL.cache host-to-device.
	H2D
	// M2S is CXL.mem master-to-subordinate (host to device memory).
	M2S
	// S2M is CXL.mem subordinate-to-master.
	S2M
)

var channelNames = [...]string{"D2H", "H2D", "M2S", "S2M"}

func (c Channel) String() string {
	if int(c) < len(channelNames) {
		return channelNames[c]
	}
	return fmt.Sprintf("Channel(%d)", int(c))
}

// TxnOp enumerates the CXL transaction opcodes observed in the paper's
// Table 1 (a small but sufficient subset of the specification's opcode
// space).
type TxnOp int

const (
	// SnpInv is a CXL.cache H2D snoop-invalidate.
	SnpInv TxnOp = iota
	// RdShared is a CXL.cache D2H cacheable read for a Shared copy.
	RdShared
	// RdOwn is a CXL.cache D2H read-for-ownership.
	RdOwn
	// ItoMWr is a CXL.cache D2H full-line push write into the host cache.
	ItoMWr
	// CleanEvict is a CXL.cache D2H eviction of a clean line.
	CleanEvict
	// DirtyEvict is a CXL.cache D2H eviction of a dirty line (writeback).
	DirtyEvict
	// WOWrInvF is a CXL.cache D2H weakly-ordered full-line write-invalidate.
	WOWrInvF
	// WrInv is a CXL.cache D2H (non-cacheable) write-invalidate.
	WrInv
	// MemRd is a CXL.mem M2S read with ownership (RFO-style).
	MemRd
	// MemRdData is a CXL.mem M2S data read without ownership.
	MemRdData
	// MemWr is a CXL.mem M2S memory write.
	MemWr
	// MemInv is a CXL.mem M2S invalidation without data.
	MemInv
)

var txnOpNames = [...]string{
	SnpInv: "SnpInv", RdShared: "RdShared", RdOwn: "RdOwn", ItoMWr: "ItoMWr",
	CleanEvict: "CleanEvict", DirtyEvict: "DirtyEvict", WOWrInvF: "WOWrInv/F",
	WrInv: "WrInv", MemRd: "MemRd", MemRdData: "MemRdData", MemWr: "MemWr", MemInv: "MemInv",
}

func (o TxnOp) String() string {
	if int(o) < len(txnOpNames) {
		return txnOpNames[o]
	}
	return fmt.Sprintf("TxnOp(%d)", int(o))
}

// channelOf returns the protocol and channel an opcode travels on.
func channelOf(o TxnOp) (Protocol, Channel) {
	switch o {
	case SnpInv:
		return CacheProto, H2D
	case RdShared, RdOwn, ItoMWr, CleanEvict, DirtyEvict, WOWrInvF, WrInv:
		return CacheProto, D2H
	case MemRd, MemRdData, MemWr, MemInv:
		return MemProto, M2S
	}
	panic(fmt.Sprintf("cxlsim: unknown opcode %d", int(o)))
}

// Transaction is one request observed on the simulated link.
type Transaction struct {
	Protocol Protocol
	Channel  Channel
	Op       TxnOp
	Addr     Addr
}

func (t Transaction) String() string {
	return fmt.Sprintf("%s %s %s @%v", t.Protocol, t.Channel, t.Op, t.Addr)
}

// Analyzer passively records link transactions, standing in for the
// hardware protocol analyzer of §5.
type Analyzer struct {
	txns []Transaction
}

// Record appends a transaction to the capture buffer.
func (a *Analyzer) Record(t Transaction) { a.txns = append(a.txns, t) }

// Ops returns just the opcodes of the captured transactions.
func (a *Analyzer) Ops() []TxnOp {
	out := make([]TxnOp, len(a.txns))
	for i, t := range a.txns {
		out[i] = t.Op
	}
	return out
}

// Reset clears the capture buffer.
func (a *Analyzer) Reset() { a.txns = a.txns[:0] }

// Len returns the number of captured transactions.
func (a *Analyzer) Len() int { return len(a.txns) }
