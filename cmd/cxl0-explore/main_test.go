package main

import (
	"strings"
	"testing"
)

// TestRunExitStatus holds the command's three exit statuses: 0 when every
// stated expectation holds, 1 when one is violated, 2 on a usage or parse
// error — a duplicate location among them, which once panicked.
func TestRunExitStatus(t *testing.T) {
	const violated = "machines: M1:nvm\nlocs: x@M1\ntrace: MStore1(x,1) E1 Load1(x,0)\nexpect: base=allowed\n"
	cases := []struct {
		name  string
		args  []string
		stdin string
		want  int
	}{
		{"corpus file", []string{"../../internal/litmus/testdata/walkthrough.litmus"}, "", 0},
		{"stdin", []string{"-"}, "machines: M1:nvm\nlocs: x@M1\ntrace: MStore1(x,1) E1 Load1(x,1)\nexpect: base=allowed\n", 0},
		{"violated expectation", []string{"-"}, violated, 1},
		{"parse error", []string{"-"}, "machines: M1:ssd\n", 2},
		{"duplicate location", []string{"-"}, "machines: M1:nvm M2:nvm\nlocs: x@M1 x@M2\ntrace: E1\n", 2},
		{"duplicate location across lines", []string{"-"}, "machines: M1:nvm M2:nvm\nlocs: x@M1\nlocs: x@M2\ntrace: E1\n", 2},
		{"missing file", []string{"no-such.litmus"}, "", 2},
		{"no arguments", nil, "", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if got := run(c.args, strings.NewReader(c.stdin), &out); got != c.want {
				t.Errorf("exit %d, want %d; output:\n%s", got, c.want, out.String())
			}
		})
	}
}
