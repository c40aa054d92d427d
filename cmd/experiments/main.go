// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated substrate and prints a reproduction
// report: for each artifact, what the paper reports, what this build
// measured, and the rendered output (condensed Performance Consultant trees,
// histograms, Jumpshot-style views, the gprof profile, the PPerfMark tables,
// and the Presta comparison). Each PPerfMark program/personality run is
// simulated once and shared by the tables and figures that show it.
//
// Usage:
//
//	experiments            # everything (about 10 s on two cores)
//	experiments -id fig3   # one experiment
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"

	"pperf/internal/experiments"
)

func main() {
	id := flag.String("id", "", "run a single experiment by id")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	if *list {
		for _, x := range experiments.IDs() {
			fmt.Println(x)
		}
		return
	}
	if *id != "" {
		res, err := experiments.Run(*id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		fmt.Print(res.Render())
		if !res.OK {
			os.Exit(1)
		}
		return
	}

	bad := 0
	for _, res := range experiments.RunAll() {
		fmt.Print(res.Render())
		fmt.Println()
		if !res.OK {
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("%d experiment(s) did not reproduce the paper's shape\n", bad)
		os.Exit(1)
	}
	fmt.Println("All experiments reproduced the paper's qualitative results.")
}
