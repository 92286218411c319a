package litmus

import (
	"os"
	"path/filepath"
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
	for i, tr := range s.Traces {
		for variant, want := range tr.Expect {
			got := explore.Allows(s.Topo, variant, tr.Labels)
			if got != want {
				t.Errorf("trace %d under %v: got %v, want %v", i, variant, got, want)
			}
		}
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
	if !explore.Allows(s.Topo, core.Base, tr.Labels) {
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
	if !explore.Allows(s.Topo, core.Base, s.Traces[0].Labels) {
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
	for i, tr := range s.Traces {
		for variant, want := range tr.Expect {
			if got := explore.Allows(s.Topo, variant, tr.Labels); got != want {
				t.Errorf("trace %d under %v: got %v, want %v", i, variant, got, want)
			}
		}
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

// TestRoundTripPaperTests re-encodes the Figure 3 corpus through the script
// format and checks verdicts survive the round trip.
func TestRoundTripPaperTests(t *testing.T) {
	script := `
machines: M1:nvm M2:nvm M3:nvm
locs: x1@M1 x2@M2 x3@M3 y1@M1
trace: RStore1(x1,1) E1 Load1(x1,0)
expect: base=allowed
trace: MStore1(x1,1) E1 Load1(x1,0)
expect: base=forbidden
trace: LStore1(x3,1) Load2(x3,1) LFlush2(x3) E1 E2 Load2(x3,0)
expect: base=forbidden
trace: RStore1(x2,1) Load2(x2,1) RStore2(y1,1) E2 Load1(y1,1) Load1(x2,0)
expect: base=allowed
`
	s, err := ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range s.Traces {
		got := explore.Allows(s.Topo, core.Base, tr.Labels)
		if got != tr.Expect[core.Base] {
			t.Errorf("round-trip trace %d (%s): got %v, want %v", i, tr.Source, got, tr.Expect[core.Base])
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
