package litmus

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/explore"
)

const sampleScript = `
# Figure 3, test 5, in the script format.
machines: M1:nvm M2:nvm
locs: x@M2
trace: LStore1(x,1) RFlush1(x) E2 Load1(x,0)
name: 5
expect: base=forbidden lwb=forbidden psn=forbidden
trace: LStore1(x,1); LFlush1(x); E2; Load1(x,0)
expect: base=allowed
`

func TestParseScript(t *testing.T) {
	s, err := ParseScript(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	if s.Topo.NumMachines() != 2 || s.Topo.NumLocs() != 1 {
		t.Fatalf("topology: %d machines, %d locs", s.Topo.NumMachines(), s.Topo.NumLocs())
	}
	if s.Topo.Mem(0) != core.NonVolatile {
		t.Errorf("M1 memory kind wrong")
	}
	if len(s.Traces) != 2 {
		t.Fatalf("got %d traces", len(s.Traces))
	}
	tr := s.Traces[0]
	if len(tr.Labels) != 4 {
		t.Fatalf("trace 0 has %d labels", len(tr.Labels))
	}
	want := []core.Op{core.OpLStore, core.OpRFlush, core.OpCrash, core.OpLoad}
	for i, op := range want {
		if tr.Labels[i].Op != op {
			t.Errorf("label %d op = %v, want %v", i, tr.Labels[i].Op, op)
		}
	}
	if tr.Labels[2].M != 1 {
		t.Errorf("crash machine = %d, want 1", tr.Labels[2].M)
	}
	if tr.Name != "5" || s.Traces[1].Name != "" {
		t.Errorf("names %q and %q, want \"5\" and none", tr.Name, s.Traces[1].Name)
	}
	if got := tr.Expect[core.Base]; got {
		t.Errorf("expect base = %v, want forbidden", got)
	}
	if allowed, ok := s.Traces[1].Expect[core.Base]; !ok || !allowed {
		t.Errorf("trace 1 base expectation wrong")
	}
}

func TestParsedScriptVerdicts(t *testing.T) {
	s, err := ParseScript(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	if _, violated := Check(s); violated != 0 {
		t.Errorf("%d stated verdicts violated", violated)
	}
}

func TestParseRMWEvents(t *testing.T) {
	s, err := ParseScript(`
machines: M1:nvm
locs: x@M1
trace: LRMW1(x,0,1) MRMW1(x,1,2) E1 Load1(x,2)
expect: base=allowed
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Traces[0]
	if tr.Labels[0].Op != core.OpLRMW || tr.Labels[0].Old != 0 || tr.Labels[0].New != 1 {
		t.Errorf("LRMW parsed wrong: %+v", tr.Labels[0])
	}
	if verdicts, _ := Check(s); !verdictOf(verdicts[0], core.Base).Allowed {
		t.Errorf("M-RMW result should persist across the crash")
	}
}

func TestParseGPF(t *testing.T) {
	s, err := ParseScript(`
machines: M1:nvm M2:nvm
locs: x@M1 y@M2
trace: LStore1(x,1) LStore1(y,2) GPF1 E1 E2 Load1(x,1) Load1(y,2)
`)
	if err != nil {
		t.Fatal(err)
	}
	if verdicts, _ := Check(s); !verdictOf(verdicts[0], core.Base).Allowed {
		t.Errorf("GPF trace should be allowed")
	}
}

func TestParseRFlushRange(t *testing.T) {
	s, err := ParseScript(`
machines: M1:nvm M2:nvm
locs: x@M2 y@M2
trace: LStore1(x,1) LStore1(y,2) RFlushRange1(x,2) E1 E2 Load1(x,1) Load1(y,2)
expect: base=allowed psn=allowed lwb=allowed
trace: LStore1(x,1) LStore1(y,2) RFlushRange1(x,2) E1 E2 Load1(y,0)
expect: base=forbidden psn=forbidden lwb=forbidden
`)
	if err != nil {
		t.Fatal(err)
	}
	lbl := s.Traces[0].Labels[2]
	if lbl.Op != core.OpRFlushRange || lbl.M != 0 || lbl.N != 2 {
		t.Fatalf("parsed ranged flush = %+v", lbl)
	}
	if _, violated := Check(s); violated != 0 {
		t.Errorf("%d stated verdicts violated", violated)
	}
	// A range running past the declared locations is a parse error, not a
	// model panic.
	if _, err := ParseScript(`
machines: M1:nvm
locs: x@M1
trace: RFlushRange1(x,2)
`); err == nil || !strings.Contains(err.Error(), "range") {
		t.Errorf("oversized range not rejected: %v", err)
	}
	if _, err := ParseScript(`
machines: M1:nvm
locs: x@M1
trace: RFlushRange1(x,0)
`); err == nil {
		t.Error("zero range count accepted")
	}
}

// TestParseLocsAcrossLines: a trace names locations of every locs: line,
// not only of the last one.
func TestParseLocsAcrossLines(t *testing.T) {
	s, err := ParseScript("machines: M1:nvm M2:nvm\nlocs: x@M1\nlocs: y@M2\ntrace: LStore1(x,1) LStore1(y,2)\n")
	if err != nil {
		t.Fatal(err)
	}
	if x, y := s.Traces[0].Labels[0], s.Traces[0].Labels[1]; x.Loc != 0 || y.Loc != 1 {
		t.Errorf("x is location %d, y is %d; want 0 and 1", x.Loc, y.Loc)
	}
}

// TestParseRFlushRangeOverLocsLines: a ranged flush's bound is every
// declared location, not only those of the last locs: line.
func TestParseRFlushRangeOverLocsLines(t *testing.T) {
	s, err := ParseScript("machines: M1:nvm M2:nvm\nlocs: x@M1\nlocs: y@M2\ntrace: RFlushRange1(y,1)\n")
	if err != nil {
		t.Fatal(err)
	}
	if lbl := s.Traces[0].Labels[0]; lbl.Op != core.OpRFlushRange || lbl.Loc != 1 || lbl.N != 1 {
		t.Fatalf("parsed ranged flush = %+v", lbl)
	}
	if _, err := ParseScript("machines: M1:nvm M2:nvm\nlocs: x@M1\nlocs: y@M2\ntrace: RFlushRange1(y,2)\n"); err == nil || !strings.Contains(err.Error(), "runs past") {
		t.Errorf("a range past the last location: got %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"no machines", "locs: x@M1\ntrace: E1", "locs before machines"},
		{"bad machine name", "machines: A:nvm", "must be named M1..Mn"},
		{"bad mem kind", "machines: M1:ssd", "unknown memory kind"},
		{"bad loc", "machines: M1:nvm\nlocs: x", "must be NAME@Mi"},
		{"unknown loc", "machines: M1:nvm\nlocs: x@M1\ntrace: Load1(z,0)", "unknown location"},
		{"machine out of range", "machines: M1:nvm\nlocs: x@M1\ntrace: Load9(x,0)", "out of range"},
		{"unknown event", "machines: M1:nvm\nlocs: x@M1\ntrace: Frob1(x)", "unknown event"},
		{"expect before trace", "machines: M1:nvm\nlocs: x@M1\nexpect: base=allowed", "expect before any trace"},
		{"bad verdict", "machines: M1:nvm\nlocs: x@M1\ntrace: E1\nexpect: base=maybe", "must be allowed or forbidden"},
		{"no trace", "machines: M1:nvm\nlocs: x@M1", "no trace directive"},
		{"name before trace", "machines: M1:nvm\nlocs: x@M1\nname: 1", "name before any trace"},
		{"two names", "machines: M1:nvm\nlocs: x@M1\ntrace: E1\nname: 1\nname: 2", "one non-empty name"},
		{"empty name", "machines: M1:nvm\nlocs: x@M1\ntrace: E1\nname:", "one non-empty name"},
		{"contradictory expect", "machines: M1:nvm\nlocs: x@M1\ntrace: E1\nexpect: base=allowed base=forbidden", `variant "base" stated twice`},
		{"expect repeated across lines", "machines: M1:nvm\nlocs: x@M1\ntrace: E1\nexpect: psn=allowed\nexpect: lwb=allowed psn=forbidden", `variant "psn" stated twice`},
		{"negative value", "machines: M1:nvm\nlocs: x@M1\ntrace: LStore1(x,-1)", "bad value"},
		{"wrong arity", "machines: M1:nvm\nlocs: x@M1\ntrace: LStore1(x)", "want 2 arguments"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseScript(c.input)
			if err == nil {
				t.Fatalf("no error for %q", c.input)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestRoundTripPaperTests renders the paper's tests 1–12 back into the
// script format, the header from the topology and each trace with
// Label.Pretty, and checks that names, labels, expectations and Check's
// verdicts survive the round trip.
func TestRoundTripPaperTests(t *testing.T) {
	short := map[core.Variant]string{core.Base: "base", core.PSN: "psn", core.LWB: "lwb"}
	word := map[bool]string{true: "allowed", false: "forbidden"}
	for _, file := range []string{"figure3.litmus", "variants.litmus"} {
		s := readScript(t, file)
		var b strings.Builder
		b.WriteString("machines:")
		for m := core.MachineID(0); int(m) < s.Topo.NumMachines(); m++ {
			kind := "nvm"
			if s.Topo.Mem(m) != core.NonVolatile {
				kind = "vol"
			}
			fmt.Fprintf(&b, " %s:%s", s.Topo.MachineName(m), kind)
		}
		b.WriteString("\nlocs:")
		for l := core.LocID(0); int(l) < s.Topo.NumLocs(); l++ {
			fmt.Fprintf(&b, " %s@%s", s.Topo.LocName(l), s.Topo.MachineName(s.Topo.Owner(l)))
		}
		for _, tr := range s.Traces {
			events := make([]string, len(tr.Labels))
			for i, l := range tr.Labels {
				events[i] = l.Pretty(s.Topo)
			}
			fmt.Fprintf(&b, "\ntrace: %s\nname: %s\nexpect:", strings.Join(events, " "), tr.Name)
			for _, v := range core.Variants {
				if want, ok := tr.Expect[v]; ok {
					fmt.Fprintf(&b, " %s=%s", short[v], word[want])
				}
			}
		}
		back, err := ParseScript(b.String())
		if err != nil {
			t.Fatalf("%s: rendered script does not parse: %v\n%s", file, err, b.String())
		}
		if len(back.Traces) != len(s.Traces) {
			t.Fatalf("%s: %d traces back, want %d", file, len(back.Traces), len(s.Traces))
		}
		for i, tr := range back.Traces {
			orig := s.Traces[i]
			if tr.Name != orig.Name || !reflect.DeepEqual(tr.Labels, orig.Labels) || !reflect.DeepEqual(tr.Expect, orig.Expect) {
				t.Errorf("%s: test %s changed in the round trip: %s", file, orig.Name, tr.Source)
			}
		}
		got, violated := Check(back)
		want, _ := Check(s)
		if violated != 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: verdicts changed in the round trip (%d violated)", file, violated)
		}
	}
}

// TestParseDuplicateLocation: a location declared twice, on one locs: line
// or across two, is a parse error naming its line, not a topology panic.
func TestParseDuplicateLocation(t *testing.T) {
	for _, input := range []string{
		"machines: M1:nvm M2:nvm\nlocs: x@M1 x@M2\ntrace: E1",
		"machines: M1:nvm M2:nvm\nlocs: x@M1\nlocs: x@M2\ntrace: E1",
	} {
		_, err := ParseScript(input)
		if err == nil || !strings.Contains(err.Error(), `duplicate location name "x"`) || !strings.HasPrefix(err.Error(), "line ") {
			t.Errorf("%q: got %v, want a line-numbered duplicate-location error", input, err)
		}
	}
}

// FuzzParseScript feeds arbitrary text to the parser, seeded with the
// testdata corpus. Input it rejects must come back as an error; every
// script it accepts that is small enough to explore (≤ 4 machines, ≤ 4
// locations, traces of ≤ 8 labels) must go through explore.Allows under
// every variant without panicking.
func FuzzParseScript(f *testing.F) {
	files, err := filepath.Glob("testdata/*.litmus")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseScript(input)
		if err != nil || s.Topo.NumMachines() > 4 || s.Topo.NumLocs() > 4 {
			return
		}
		for _, tr := range s.Traces {
			if len(tr.Labels) > 8 {
				continue
			}
			for _, v := range core.Variants {
				explore.Allows(s.Topo, v, tr.Labels)
			}
		}
	})
}
