package litmus

import (
	"fmt"
	"testing"

	"cxl0/internal/core"
)

// verdictOf returns the verdict of vs, one trace's row of Check, under v.
func verdictOf(vs []Verdict, v core.Variant) Verdict {
	for _, got := range vs {
		if got.Variant == v {
			return got
		}
	}
	panic(fmt.Sprintf("no verdict under %v", v))
}

// TestCheckFlagsViolations: Check derives every variant, marks the stated
// verdicts, and counts as violated exactly the stated one the model
// contradicts.
func TestCheckFlagsViolations(t *testing.T) {
	s, err := ParseScript("machines: M1:nvm\nlocs: x@M1\ntrace: MStore1(x,1) E1 Load1(x,0)\nexpect: base=allowed psn=forbidden\n")
	if err != nil {
		t.Fatal(err)
	}
	verdicts, violated := Check(s)
	if violated != 1 {
		t.Errorf("%d violated, want 1", violated)
	}
	for _, want := range []Verdict{
		{Variant: core.Base, Stated: true, Want: true, Violated: true},
		{Variant: core.PSN, Stated: true},
		{Variant: core.LWB},
	} {
		if got := verdictOf(verdicts[0], want.Variant); got != want {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}
}

// agreesWithPaper checks a numbered corpus file through Check: each of its
// tests states a verdict under every variant in want, and the model
// derives each stated one.
func agreesWithPaper(t *testing.T, file string, want []core.Variant) {
	s := readScript(t, file)
	verdicts, _ := Check(s)
	for i, vs := range verdicts {
		for _, v := range want {
			switch got := verdictOf(vs, v); {
			case !got.Stated:
				t.Errorf("%s: test %s states no verdict under %v", file, s.Traces[i].Name, v)
			case got.Violated:
				t.Errorf("%s: test %s under %v: got %s, paper says %s",
					file, s.Traces[i].Name, v, Mark(got.Allowed), Mark(got.Want))
			}
		}
	}
}

// TestFigure3 re-derives the verdicts of all nine Figure 3 litmus tests and
// compares them with the paper.
func TestFigure3(t *testing.T) {
	agreesWithPaper(t, "figure3.litmus", []core.Variant{core.Base})
}

// TestVariantTriples re-derives the (CXL0, LWB, PSN) verdict triples of
// tests 10–12.
func TestVariantTriples(t *testing.T) {
	agreesWithPaper(t, "variants.litmus", core.Variants)
}

// TestVariantsAreIncomparable confirms the paper's claim that PSN and LWB
// are incomparable: each forbids a trace of tests 10–12 the other allows.
func TestVariantsAreIncomparable(t *testing.T) {
	var lwbStricterSomewhere, psnStricterSomewhere bool
	verdicts, _ := Check(readScript(t, "variants.litmus"))
	for _, vs := range verdicts {
		lwb, psn := verdictOf(vs, core.LWB).Allowed, verdictOf(vs, core.PSN).Allowed
		if psn && !lwb {
			lwbStricterSomewhere = true
		}
		if lwb && !psn {
			psnStricterSomewhere = true
		}
	}
	if !lwbStricterSomewhere || !psnStricterSomewhere {
		t.Errorf("variants not shown incomparable: lwbStricter=%v psnStricter=%v",
			lwbStricterSomewhere, psnStricterSomewhere)
	}
}

// TestMotivatingVerdicts checks the §6 example end-to-end: the plain LStore
// program fails the assertion; MStore or RFlush repairs it.
func TestMotivatingVerdicts(t *testing.T) {
	if MotivatingAssertionHolds(core.OpLStore, false) {
		t.Errorf("plain LStore program unexpectedly satisfies assert(r1==r2)")
	}
	if !MotivatingAssertionHolds(core.OpMStore, false) {
		t.Errorf("MStore repair does not satisfy the assertion")
	}
	if !MotivatingAssertionHolds(core.OpLStore, true) {
		t.Errorf("RFlush repair does not satisfy the assertion")
	}
}

// TestCorpusShape sanity-checks the numbered corpus files statically:
// Figure 3's tests 1–9 each state a Base verdict, §3.5's tests 10–12 each
// state all three, and the findings are numbered 101–110.
func TestCorpusShape(t *testing.T) {
	for _, c := range []struct {
		file     string
		first, n int
		variants []core.Variant
	}{
		{"figure3.litmus", 1, 9, []core.Variant{core.Base}},
		{"variants.litmus", 10, 3, core.Variants},
		{"findings.litmus", 101, 10, []core.Variant{core.Base}},
	} {
		s := readScript(t, c.file)
		if len(s.Traces) != c.n {
			t.Fatalf("%s has %d tests, want %d", c.file, len(s.Traces), c.n)
		}
		for i, tr := range s.Traces {
			if want := fmt.Sprint(c.first + i); tr.Name != want {
				t.Errorf("%s: test %s is named %q", c.file, want, tr.Name)
			}
			if len(tr.Labels) == 0 {
				t.Errorf("%s: test %s incomplete", c.file, tr.Name)
			}
			for _, v := range c.variants {
				if _, ok := tr.Expect[v]; !ok {
					t.Errorf("%s: test %s states no verdict under %v", c.file, tr.Name, v)
				}
			}
		}
	}
}

// TestExtendedCrashWindowPair pins the F2 pair: with the crash in the
// store-flush window both survival and loss are reachable — the crux of
// the vacuous-flush finding.
func TestExtendedCrashWindowPair(t *testing.T) {
	s := readScript(t, "findings.litmus")
	verdicts, _ := Check(s)
	reachable := map[string]bool{}
	for i, tr := range s.Traces {
		reachable[tr.Name] = verdictOf(verdicts[i], core.Base).Allowed
	}
	loss, lossListed := reachable["101"]
	survival, survivalListed := reachable["102"]
	if !lossListed || !survivalListed {
		t.Fatal("F2 pair missing from corpus")
	}
	if !loss || !survival {
		t.Fatalf("both outcomes of the crash window must be reachable")
	}
}
