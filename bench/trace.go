package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"

	"cxl0/internal/obs"
	"cxl0/internal/pool"
)

// spanName names a host-clock span the driver records around one of its
// own calls.
type spanName uint8

const (
	spanNext spanName = iota
	spanGet
	spanPut
	spanScan
	spanSync
	spanRecover
	spanRebalance
	numSpans
)

var spanNames = [numSpans]string{
	"workload.next", "pool.get", "pool.put", "pool.scan", "pool.sync", "churn.recover", "churn.rebalance",
}

// maxTraceRows caps the rows kept for the trace file; the ledger is
// computed from every span either way. A million-op rep would otherwise
// write a few hundred MB.
const maxTraceRows = 200000

// busSize holds the events of one driver step: the tracer drains the bus
// after every call, and the largest single step (a Rebalance moving
// several buckets, a compaction) publishes a few hundred events.
const busSize = 1 << 14

// traceRow is one line of the trace file. Host spans carry host
// nanoseconds since the start of the measured phase; rows named sim.*
// carry simulated nanoseconds of the emitting cluster's clock.
type traceRow struct {
	name       string
	start, end float64
	op         int
	parent     string
}

// tracer is the traced rep's recorder. Everything stays in memory until
// the rep is over. All its methods are no-ops on a nil tracer, so the
// untraced loop pays one predictable branch per call site.
type tracer struct {
	t0   time.Time
	durs [numSpans][]float64 // host ns per span, by name
	rows []traceRow
	// dropped counts rows past maxTraceRows.
	dropped int

	bus *obs.Bus
	sub *obs.Sub

	// Aggregates over the obs event stream (simulated clock).
	commits, commitFlushNS, commitQueueNS float64
	opN, opNS                             map[obs.Op]float64
	scanFanOuts, scanLegs                 float64
	legMakespan, legSerial                float64
	curLegMax, curLegSum                  float64
}

func newTracer() *tracer {
	return &tracer{
		bus: obs.NewBus(busSize),
		opN: map[obs.Op]float64{}, opNS: map[obs.Op]float64{},
	}
}

// attach starts observing rt; the measured phase starts now.
func (t *tracer) attach(rt *pool.Router) {
	t.sub = t.bus.Subscribe()
	rt.Observe(obs.NewRecorder(t.bus, nil))
	t.t0 = time.Now()
}

func (t *tracer) detach(rt *pool.Router) {
	rt.Observe(nil)
	t.sub.Close()
}

// now returns host nanoseconds since attach.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) addRow(r traceRow) {
	if len(t.rows) < maxTraceRows {
		t.rows = append(t.rows, r)
	} else {
		t.dropped++
	}
}

// span closes the host span name of driver op i that began at start.
func (t *tracer) span(name spanName, i int, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.durs[name] = append(t.durs[name], float64(end-start))
	t.addRow(traceRow{name: spanNames[name], start: float64(start), end: float64(end), op: i})
}

// drain folds the events published since the last drain into the sim-clock
// aggregates and files them under driver op i, as children of the host
// span cause.
func (t *tracer) drain(i int, cause spanName) {
	if t == nil {
		return
	}
	for _, e := range t.sub.Poll(0) {
		name := "sim." + e.Kind.String()
		switch {
		case e.Kind == obs.KindCommit:
			t.commits++
			t.commitFlushNS += e.EndNS - e.StartNS
			t.commitQueueNS += e.QueueNS
		case e.Kind != obs.KindOp:
			if e.Step != "" {
				name += "." + e.Step
			}
		case e.Parent != 0:
			// One cluster's leg of a pooled fan-out.
			name += "." + e.Op.String() + ".leg"
			if e.Op == obs.OpScan {
				t.scanLegs++
				d := e.EndNS - e.StartNS
				t.curLegSum += d
				if d > t.curLegMax {
					t.curLegMax = d
				}
			}
		case e.Cluster < 0:
			// The router's parent span; its legs were published first.
			name += "." + e.Op.String() + ".fanout"
			if e.Op == obs.OpScan {
				t.scanFanOuts++
				t.legMakespan += t.curLegMax
				t.legSerial += t.curLegSum
				t.curLegMax, t.curLegSum = 0, 0
			}
		default:
			name += "." + e.Op.String()
			t.opN[e.Op]++
			t.opNS[e.Op] += e.EndNS - e.StartNS
		}
		t.addRow(traceRow{name: name, start: e.StartNS, end: e.EndNS, op: i, parent: spanNames[cause]})
	}
}

// writeFile writes the buffered rows as CSV: name,start_ns,end_ns,op,parent.
func (t *tracer) writeFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,op,parent")
	num := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
	for _, r := range t.rows {
		fmt.Fprintf(w, "%s,%s,%s,%d,%s\n", r.name, num(r.start), num(r.end), r.op, r.parent)
	}
	return w.Flush()
}
