// Command cxl0-litmus regenerates the paper's litmus-test tables: the nine
// Figure 3 verdicts, the §3.5 variant triples (tests 10–12), the §6
// motivating example, and the §4 primitive-availability matrix.
//
// Usage:
//
//	cxl0-litmus            # Figure 3 + variant triples
//	cxl0-litmus -motivating
//	cxl0-litmus -setups
package main

import (
	"flag"
	"fmt"
	"os"

	"cxl0/internal/core"
	"cxl0/internal/litmus"
)

func main() {
	motivating := flag.Bool("motivating", false, "run only the §6 motivating example")
	setups := flag.Bool("setups", false, "print only the §4 primitive-availability matrix")
	flag.Parse()

	switch {
	case *motivating:
		printMotivating()
	case *setups:
		printSetups()
	default:
		ok1 := printFigure3()
		ok2 := printVariants()
		printMotivating()
		ok3 := printExtended()
		if !ok1 || !ok2 || !ok3 {
			os.Exit(1)
		}
	}
}

func printFigure3() bool {
	fmt.Println("Figure 3 — litmus tests for CXL0 (paper verdict vs. model)")
	fmt.Println("----------------------------------------------------------")
	agree := true
	for _, r := range litmus.RunAll(litmus.Figure3()) {
		status := "agree"
		if !r.Agrees() {
			status = "MISMATCH"
			agree = false
		}
		fmt.Printf("  (%d) %-62s paper:%s model:%s  [%s]\n",
			r.Test.ID, r.Test.Paper, litmus.Mark(r.Expected), litmus.Mark(r.Got), status)
	}
	fmt.Println()
	return agree
}

func printVariants() bool {
	fmt.Println("§3.5 — variant comparison (CXL0, CXL0-LWB, CXL0-PSN)")
	fmt.Println("-----------------------------------------------------")
	agree := true
	for _, t := range litmus.VariantTests() {
		got := [3]bool{t.Run(core.Base), t.Run(core.LWB), t.Run(core.PSN)}
		want := [3]bool{t.Expected[core.Base], t.Expected[core.LWB], t.Expected[core.PSN]}
		status := "agree"
		if got != want {
			status = "MISMATCH"
			agree = false
		}
		fmt.Printf("  (%d) %-58s paper:(%s,%s,%s) model:(%s,%s,%s)  [%s]\n",
			t.ID, t.Paper,
			litmus.Mark(want[0]), litmus.Mark(want[1]), litmus.Mark(want[2]),
			litmus.Mark(got[0]), litmus.Mark(got[1]), litmus.Mark(got[2]), status)
	}
	fmt.Println()
	return agree
}

func printMotivating() {
	fmt.Println("§6 motivating example — x on M2; M1 runs: x=1; r1=x; r2=x; assert(r1==r2)")
	fmt.Println("--------------------------------------------------------------------------")
	rows := []struct {
		label  string
		store  core.Op
		rflush bool
		expect bool // paper: does the assertion hold?
	}{
		{"x=1 as LStore (legacy code)", core.OpLStore, false, false},
		{"x=1 as MStore", core.OpMStore, false, true},
		{"x=1 as LStore + RFlush(x)", core.OpLStore, true, true},
	}
	for _, row := range rows {
		holds := litmus.MotivatingAssertionHolds(row.store, row.rflush)
		verdict := "assertion may FAIL"
		if holds {
			verdict = "assertion holds"
		}
		agree := "agree"
		if holds != row.expect {
			agree = "MISMATCH"
		}
		fmt.Printf("  %-30s -> %-20s [%s]\n", row.label, verdict, agree)
	}
	fmt.Println()
}

func printExtended() bool {
	fmt.Println("Extended corpus — reproduction-finding traces (see internal/litmus/extended.go)")
	fmt.Println("-------------------------------------------------------------------------------")
	agree := true
	for _, r := range litmus.RunAll(litmus.Extended()) {
		status := "agree"
		if !r.Agrees() {
			status = "MISMATCH"
			agree = false
		}
		fmt.Printf("  (%d) %-68s %-9s expected:%s model:%s  [%s]\n",
			r.Test.ID, r.Test.Paper, r.Variant, litmus.Mark(r.Expected), litmus.Mark(r.Got), status)
	}
	fmt.Println()
	return agree
}

func printSetups() {
	fmt.Println("§4 — CXL0 primitive availability per system configuration")
	fmt.Println("----------------------------------------------------------")
	fmt.Printf("  %-10s", "")
	for _, op := range core.AllOps {
		fmt.Printf("%-13s", op)
	}
	fmt.Println()
	for _, s := range core.Setups {
		roles := []core.NodeRole{core.RoleHost}
		if s == core.HostDevicePair {
			roles = []core.NodeRole{core.RoleHost, core.RoleDevice}
		}
		fmt.Printf("%s\n", s)
		for _, role := range roles {
			fmt.Printf("  %-10s", role)
			for _, op := range core.AllOps {
				mark := "-"
				if s.Available(role, op) {
					mark = "yes"
				}
				fmt.Printf("%-13s", mark)
			}
			fmt.Println()
		}
	}
}
