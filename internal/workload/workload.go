// Package workload drives any kv.DB — a single cluster-backed kv.Store
// or a pool.Router over several clusters (Options.Clusters) — with
// YCSB-style synthetic traffic and reports machine-readable results:
// simulated throughput, latency percentiles from the latency model, and
// crash-recovery times under an injected crash-churn schedule.
//
// Generators are deterministic: the same Spec and seed produce the same
// operation stream, so benchmark results are reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"cxl0/internal/core"
	"cxl0/internal/kv"
)

// Dist selects the key distribution of a workload.
type Dist int

const (
	// Uniform draws keys uniformly from the keyspace.
	Uniform Dist = iota
	// Zipfian draws keys with YCSB's skew: a few hot keys dominate.
	Zipfian
	// Latest skews reads towards recently inserted keys (YCSB-D).
	Latest
)

var distNames = [...]string{"uniform", "zipfian", "latest"}

func (d Dist) String() string {
	if d >= 0 && int(d) < len(distNames) {
		return distNames[d]
	}
	return fmt.Sprintf("Dist(%d)", int(d))
}

// OpKind is one operation type.
type OpKind int

const (
	// OpRead is a point lookup.
	OpRead OpKind = iota
	// OpUpdate overwrites an existing key.
	OpUpdate
	// OpInsert writes a fresh key.
	OpInsert
	// OpScan is a short range scan.
	OpScan
)

var opNames = [...]string{"read", "update", "insert", "scan"}

func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one generated operation.
type Op struct {
	Kind    OpKind
	Key     int64
	Value   int64
	ScanLen int
}

// Issue runs op against db — a Get, a Put (update or insert), or a Scan
// of up to ScanLen pairs from Key to the end of the keyspace — and
// returns the operation's error; results are dropped.
func (op Op) Issue(db kv.DB) error {
	var err error
	switch op.Kind {
	case OpRead:
		_, _, err = db.Get(core.Val(op.Key))
	case OpUpdate, OpInsert:
		_, err = db.Put(core.Val(op.Key), core.Val(op.Value))
	case OpScan:
		_, err = db.Scan(core.Val(op.Key), math.MaxInt64, op.ScanLen)
	}
	return err
}

// Spec describes a workload mix, YCSB-style.
type Spec struct {
	// Name labels the workload in reports.
	Name string `json:"name"`
	// ReadPct, UpdatePct, InsertPct and ScanPct are the operation mix in
	// percent; they must sum to 100.
	ReadPct   int `json:"read_pct"`
	UpdatePct int `json:"update_pct"`
	InsertPct int `json:"insert_pct"`
	ScanPct   int `json:"scan_pct"`
	// Dist is the key distribution for reads and updates.
	Dist Dist `json:"-"`
	// Keys is the preloaded keyspace size.
	Keys int `json:"keys"`
	// MaxScanLen bounds scan lengths (uniform in [1, MaxScanLen]).
	MaxScanLen int `json:"max_scan_len,omitempty"`
}

// YCSB returns the named standard workload:
//
//	A — update-heavy: 50% reads, 50% updates, zipfian.
//	B — read-mostly: 95% reads, 5% updates, zipfian.
//	C — read-only: 100% reads, zipfian.
//	D — read-latest: 95% reads, 5% inserts, latest distribution.
//	E — scan-heavy: 95% short scans, 5% inserts, zipfian.
func YCSB(name string) (Spec, error) {
	switch name {
	case "A", "a":
		return Spec{Name: "A", ReadPct: 50, UpdatePct: 50, Dist: Zipfian, Keys: 1000}, nil
	case "B", "b":
		return Spec{Name: "B", ReadPct: 95, UpdatePct: 5, Dist: Zipfian, Keys: 1000}, nil
	case "C", "c":
		return Spec{Name: "C", ReadPct: 100, Dist: Zipfian, Keys: 1000}, nil
	case "D", "d":
		return Spec{Name: "D", ReadPct: 95, InsertPct: 5, Dist: Latest, Keys: 1000}, nil
	case "E", "e":
		return Spec{Name: "E", ScanPct: 95, InsertPct: 5, Dist: Zipfian, Keys: 1000, MaxScanLen: 16}, nil
	}
	return Spec{}, fmt.Errorf("workload: unknown YCSB workload %q (want A, B, C, D or E)", name)
}

// Validate checks the mix sums to 100 and the keyspace is positive.
func (s Spec) Validate() error {
	if s.ReadPct+s.UpdatePct+s.InsertPct+s.ScanPct != 100 {
		return fmt.Errorf("workload %s: operation mix sums to %d, want 100",
			s.Name, s.ReadPct+s.UpdatePct+s.InsertPct+s.ScanPct)
	}
	if s.Keys <= 0 {
		return fmt.Errorf("workload %s: keyspace must be positive", s.Name)
	}
	if s.ScanPct > 0 && s.MaxScanLen <= 0 {
		return fmt.Errorf("workload %s: scans require MaxScanLen > 0", s.Name)
	}
	return nil
}

// Generator produces a deterministic operation stream for one Spec.
type Generator struct {
	spec     Spec
	rng      *rand.Rand
	zipf     zipf  // over [0, inserted-1]; zipfian and latest specs only
	inserted int64 // keys [0, inserted) exist
}

// NewGenerator seeds a generator. The keyspace [0, spec.Keys) is assumed
// preloaded (Run loads it before the first operation).
func NewGenerator(spec Spec, seed int64) *Generator {
	g := &Generator{spec: spec, rng: rand.New(rand.NewSource(seed)), inserted: int64(spec.Keys)}
	g.reskew()
	return g
}

// reskew resizes the zipf sampler to the current keyspace so keys
// inserted during the run join the selectable population. It draws
// nothing and recomputes two constants (zipf.go); the sampler's draws
// are rand.NewZipf(g.rng, 1.1, 1, inserted-1)'s, value for value.
func (g *Generator) reskew() {
	if g.spec.Dist == Zipfian || g.spec.Dist == Latest {
		g.zipf = newZipf(uint64(g.inserted - 1))
	}
}

// key draws a key from the existing keyspace per the spec's distribution.
func (g *Generator) key() int64 {
	switch g.spec.Dist {
	case Zipfian:
		return int64(g.zipf.next(g.rng))
	case Latest:
		return g.inserted - 1 - int64(g.zipf.next(g.rng))
	default:
		return g.rng.Int63n(g.inserted)
	}
}

// value draws a positive payload value.
func (g *Generator) value() int64 { return 1 + g.rng.Int63n(1<<30) }

// Next returns the next operation.
func (g *Generator) Next() Op {
	p := g.rng.Intn(100)
	switch {
	case p < g.spec.ReadPct:
		return Op{Kind: OpRead, Key: g.key()}
	case p < g.spec.ReadPct+g.spec.UpdatePct:
		return Op{Kind: OpUpdate, Key: g.key(), Value: g.value()}
	case p < g.spec.ReadPct+g.spec.UpdatePct+g.spec.InsertPct:
		k := g.inserted
		g.inserted++
		g.reskew()
		return Op{Kind: OpInsert, Key: k, Value: g.value()}
	default:
		return Op{Kind: OpScan, Key: g.key(), ScanLen: 1 + g.rng.Intn(g.spec.MaxScanLen)}
	}
}
