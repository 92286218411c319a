// Command cxl0-explore checks user-written litmus tests against the CXL0
// model and its variants — the role FDR4 plays in the paper, as a CLI.
//
// Scripts use the paper's notation:
//
//	machines: M1:nvm M2:vol
//	locs: x@M2
//	trace: LStore1(x,1) RFlush1(x) E2 Load1(x,0)
//	name: remote flush
//	expect: base=forbidden
//
// A trace's optional name: is printed beside its number.
//
// Usage:
//
//	cxl0-explore file.litmus     # check a script file
//	cxl0-explore -               # read the script from stdin
//
// internal/litmus/testdata holds example scripts. Exit status is 1 when
// any stated expectation is violated and 2 on a usage or parse error.
package main

import (
	"fmt"
	"io"
	"os"

	"cxl0/internal/litmus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}

// run checks the script named by args (or stdin for "-"), prints every
// trace's verdict under each variant to stdout, and returns the exit
// status.
func run(args []string, stdin io.Reader, stdout io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: cxl0-explore <file.litmus | ->")
		return 2
	}
	var (
		input []byte
		err   error
		name  = args[0]
	)
	if name == "-" {
		input, err = io.ReadAll(stdin)
		name = "stdin"
	} else {
		input, err = os.ReadFile(name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxl0-explore:", err)
		return 2
	}
	script, err := litmus.ParseScript(string(input))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxl0-explore:", err)
		return 2
	}

	fmt.Fprintf(stdout, "%s: %d machines, %d locations, %d traces\n\n",
		name, script.Topo.NumMachines(), script.Topo.NumLocs(), len(script.Traces))
	verdicts, failures := litmus.Check(script)
	for i, tr := range script.Traces {
		label := ""
		if tr.Name != "" {
			label = " (" + tr.Name + ")"
		}
		fmt.Fprintf(stdout, "trace %d%s: %s\n", i+1, label, tr.Source)
		for _, v := range verdicts[i] {
			verdict := "forbidden"
			if v.Allowed {
				verdict = "allowed"
			}
			note := ""
			if v.Violated {
				note = "  [EXPECTATION VIOLATED]"
			} else if v.Stated {
				note = "  [expected]"
			}
			fmt.Fprintf(stdout, "  %-9s %s%s\n", v.Variant.String()+":", verdict, note)
		}
		fmt.Fprintln(stdout)
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "%d expectation(s) violated\n", failures)
		return 1
	}
	return 0
}
