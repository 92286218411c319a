// Command cxl0-flitbench compares persistence strategies (§6.1) on the
// simulated CXL clock: simulated nanoseconds per high-level operation for
// each workload, strategy, and data placement.
//
// Expected shape (internal/flitbench's tests assert it): no-persist sets the durability-free
// floor; among the sound strategies, the FliT transformations beat
// MStore-everything on read-mostly and RMW-heavy workloads, and the §6.1
// owner-local LFlush optimisation pays off when the data lives on the
// writing machine.
package main

import (
	"flag"
	"fmt"

	"cxl0/internal/flit"
	"cxl0/internal/flitbench"
)

func main() {
	ops := flag.Int("ops", 2000, "timed operations per cell")
	ablations := flag.Bool("ablations", false, "also run the ablation studies")
	flag.Parse()
	defer func() {
		if *ablations {
			printAblations(*ops)
		}
	}()

	fmt.Println("§6.1 — persistence-strategy cost on the simulated CXL clock (sim ns/op)")
	fmt.Println("========================================================================")
	for _, placement := range []flitbench.Placement{flitbench.Remote, flitbench.Local} {
		fmt.Printf("\ndata placement: %s\n", placement)
		fmt.Printf("  %-17s", "workload")
		for _, s := range flit.Strategies {
			fmt.Printf("%15s", s)
		}
		fmt.Println()
		for _, w := range flitbench.Workloads {
			fmt.Printf("  %-17s", w)
			for _, s := range flit.Strategies {
				st, err := flitbench.Run(flitbench.Config{
					Workload: w, Strategy: s, Placement: placement, Ops: *ops, Seed: 1,
				})
				if err != nil {
					fmt.Printf("%15s", "err")
					continue
				}
				fmt.Printf("%15.0f", st.SimNSPerOp)
			}
			fmt.Println()
		}
	}
	fmt.Println("\n(no-persist and original-flit are NOT durably linearizable — see cxl0-check;")
	fmt.Println(" they appear here only as cost floors.)")
}

func printAblations(ops int) {
	fmt.Println("\nablation: eviction pressure (queue-pingpong, remote; sim ns/op)")
	evictStrats := []flit.Strategy{flit.CXL0FliT, flit.MStoreAll, flit.NoPersist}
	evict, err := flitbench.EvictionAblation(evictStrats, []int{0, 64, 8, 1}, ops)
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	fmt.Printf("  %-15s", "evict every")
	for _, p := range evict {
		if p.Strategy == flit.CXL0FliT {
			fmt.Printf("%10d", p.EvictEvery)
		}
	}
	fmt.Println()
	for _, s := range evictStrats {
		fmt.Printf("  %-15s", s)
		for _, p := range evict {
			if p.Strategy == s {
				fmt.Printf("%10.0f", p.SimNSPerOp)
			}
		}
		fmt.Println()
	}
	fmt.Println("  (the sound strategies bypass caches for remote mutations, so eviction")
	fmt.Println("   pressure barely moves them; cache-reliant no-persist degrades.)")

	fmt.Println("\nablation: local-access fraction (register mix; sim ns/op)")
	mix, err := flitbench.PlacementMixAblation(
		[]flit.Strategy{flit.CXL0FliT, flit.CXL0FliTOpt},
		[]int{0, 25, 50, 75, 100}, ops)
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	fmt.Printf("  %-15s", "% local")
	for _, p := range mix {
		if p.Strategy == flit.CXL0FliT {
			fmt.Printf("%10d", p.LocalPercent)
		}
	}
	fmt.Println()
	for _, s := range []flit.Strategy{flit.CXL0FliT, flit.CXL0FliTOpt} {
		fmt.Printf("  %-15s", s)
		for _, p := range mix {
			if p.Strategy == s {
				fmt.Printf("%10.0f", p.SimNSPerOp)
			}
		}
		fmt.Println()
	}

	fmt.Println("\nablation: FliT counter-table size (reader false sharing, 128 reads)")
	table, err := flitbench.CounterTableAblation([]int{1, 8, 64, 1024}, 128)
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	fmt.Printf("  %-12s %-14s %s\n", "table size", "sim ns/read", "spurious helping flushes")
	for _, p := range table {
		fmt.Printf("  %-12d %-14.0f %d/128\n", p.TableSize, p.SimNSPerOp, p.HelpedLoads)
	}
}
