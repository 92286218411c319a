// Command cxl0-check runs the §6 durable-linearizability experiment:
// concurrent workloads over FliT-transformed data structures with injected
// machine crashes, checked against sequential specifications.
//
// The correct strategies (cxl0-flit, cxl0-flit-opt, mstore-all) must pass
// every run; the unsound ones (original-flit, no-persist) are expected to
// lose completed operations when the memory host crashes.
//
// Usage:
//
//	cxl0-check [-seeds N] [-workers N] [-ops N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cxl0/internal/crashtest"
	"cxl0/internal/flit"
	"cxl0/internal/history"
)

func main() {
	seeds := flag.Int("seeds", 8, "randomized runs per configuration")
	workers := flag.Int("workers", 3, "concurrent clients")
	ops := flag.Int("ops", 6, "operations per client")
	verbose := flag.Bool("verbose", false, "print the timeline of the first violating history per strategy")
	flag.Parse()

	fmt.Println("§6 — durable linearizability under partial crashes")
	fmt.Println("===================================================")
	fmt.Printf("%d seeds per cell; %d workers × %d ops + full post-crash observation\n\n",
		*seeds, *workers, *ops)

	exit := 0
	for _, strat := range flit.Strategies {
		fmt.Printf("strategy %-14s (sound: %v)\n", strat, strat.Correct())
		var firstViolation *crashtest.Result
		for _, structure := range crashtest.Structures {
			fmt.Printf("  %-9s", structure)
			for _, mode := range crashtest.CrashModes {
				ok, bad, first, err := crashtest.Sweep(crashtest.Options{
					Structure:    structure,
					Strategy:     strat,
					Crash:        mode,
					Workers:      *workers,
					OpsPerWorker: *ops,
				}, *seeds)
				if err != nil {
					fmt.Printf("  %s:error(%v)", mode, err)
					exit = 1
					continue
				}
				fmt.Printf("  %s:%d/%d", mode, ok, ok+bad)
				if bad > 0 && firstViolation == nil {
					firstViolation = first
				}
				if bad > 0 && strat.Correct() {
					fmt.Printf(" UNEXPECTED-VIOLATION")
					exit = 1
				}
			}
			fmt.Println()
		}
		if *verbose && firstViolation != nil {
			fmt.Printf("  first violating history (%v/%v, seed %d):\n",
				firstViolation.Options.Structure, firstViolation.Options.Crash, firstViolation.Options.Seed)
			for _, line := range strings.Split(strings.TrimSuffix(history.Timeline(firstViolation.History), "\n"), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
		fmt.Println()
	}
	fmt.Println("cells are pass/total durably-linearizable runs; sound strategies must be n/n,")
	fmt.Println("unsound ones are expected to drop below n/n under memory-host crashes.")
	os.Exit(exit)
}
