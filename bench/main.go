// Command bench is the repository's benchmark: five workloads over the
// tool's planes, eleven end-to-end metrics per workload, and per-layer
// attribution measured from outside the layers. See README.md.
//
//	bash bench/run.sh                                   full run, writes bench/out/BENCH_<commit>.json
//	bash bench/run.sh -workload store-cycle -reps 10    one workload
//	bash bench/run.sh -compare A.json B.json            compare two result files
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one driver run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload    = fs.String("workload", "", "run only this workload (default: all five)")
		seed        = fs.Uint64("seed", 7, "benchmark seed: selects simulation seeds and the order of generated inputs")
		reps        = fs.Int("reps", 5, "measured repetitions per workload, interleaved round-robin")
		seconds     = fs.Float64("seconds", 0, "measure for this many seconds instead of a fixed -reps")
		traceMode   = fs.Int("trace", -1, "driver runs: 0 prints BENCHMARK.json's end_to_end metrics as one JSON line, 1 adds the attribution pass and prints its per_layer metrics (host time and layers)")
		attribution = fs.Bool("attribution", true, "full runs: add the attribution pass (per-layer metrics)")
		outPath     = fs.String("out", "", "full runs: result file (default bench/out/BENCH_<commit>.json)")
		compare     = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		printManif  = fs.Bool("manifest", false, "print BENCHMARK.json as generated from the metric registry")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManif:
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareMain(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	driver := *traceMode >= 0
	if *traceMode > 1 || (driver && *workload == "") || (*seconds <= 0 && *reps < 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1 and needs -workload; -reps is at least 1")
		return 2
	}
	names := workloadNames()
	if *workload != "" {
		if workloadByName(*workload) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, names)
			return 2
		}
		names = []string{*workload}
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// Children are killed and the temp tree removed when the run is
	// interrupted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{
		Root: root, Workloads: names, Seed: *seed, Reps: *reps, Seconds: *seconds,
		Attribution: *attribution, MicroMin: microMin,
		Log: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...) },
	}
	if driver {
		cfg.Attribution = *traceMode == 1
		if cfg.Attribution {
			// A traced run spends its time on the attribution pass; half
			// the window of end-to-end reps gives the host-time metrics it
			// prints and the wall time the tracing overhead is stated
			// against.
			cfg.Seconds = *seconds / 2
		}
	} else {
		cfg.Commit = commitOf(root)
	}
	rep, err := benchmark(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	failed := false
	for _, wr := range rep.Workloads {
		failed = failed || wr.Failed > 0
	}
	if driver {
		printTable(os.Stderr, rep)
		line, err := driverLine(rep.Workloads[*workload], *traceMode == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		return 0
	}
	printTable(os.Stdout, rep)
	path := *outPath
	if path == "" {
		path = filepath.Join(outDir(root), "BENCH_"+rep.Commit+".json")
	}
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresult file: %s\n", path)
	if failed {
		fmt.Fprintln(os.Stderr, "bench: correctness checks failed")
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in this directory or any parent: run from the repository")
		}
		dir = parent
	}
}
