// Command pperf runs one PPerfMark program under the full performance tool
// (daemons, front end, Performance Consultant) and prints what the tool
// found: the condensed Consultant output, the resource hierarchy, and any
// verification counters.
//
// Usage:
//
//	pperf -prog small-messages -impl lam
//	pperf -prog winscpw-sync -impl mpich2 -iterations 500
//	pperf -prog small-messages -record run.ppdb
//	pperf -replay run.ppdb
//	pperf -replay run.ppdb -what-if-sync 0.05
//	pperf -prog small-messages -db ./experiments -db-label baseline
//	pperf db -store ./experiments diff r0001 r0002
//	pperf db -store ./experiments diff -since-fault -format=json r0001 r0002
//	pperf db -store ./experiments trend -alpha=0.1 big-message
//	pperf db help trend
//	pperf -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pperf/internal/faults"
	"pperf/internal/perfdb"
)

func main() { os.Exit(run(os.Args[1:])) }

// opts holds the value of every flag of every command; each command reads
// only the flags its registry row names. out holds what a run has opened.
type opts struct {
	prog, impl, spawn, pcl, faults, trace, traceFmt, record, replay, db, dbLabel string
	list, hier, judge, critPath, wireStats                                       bool
	iters, np, ttw                                                               int
	seed                                                                         uint64
	wifSync, wifIO, wifCPU                                                       float64

	store, label, addrFile, syncFaults, format, from, to string
	all, sinceFault                                      bool
	chunkBytes                                           int
	alpha, minEffect                                     float64
	syncPlan                                             *faults.Plan // -sync-faults, parsed

	given []string // the flags on the command line, in name order
	out   outputs
}

// define registers pperf's one flag table on fs: the run modes' flags, then
// the db verbs'.
func (o *opts) define(fs *flag.FlagSet) {
	fs.StringVar(&o.prog, "prog", "", "PPerfMark program to run (see -list)")
	fs.StringVar(&o.impl, "impl", "lam", "MPI implementation personality: lam | mpich | mpich2 | reference")
	fs.BoolVar(&o.list, "list", false, "list available programs and exit")
	fs.IntVar(&o.iters, "iterations", 0, "override the program's iteration count")
	fs.IntVar(&o.np, "np", 0, "override the process count")
	fs.IntVar(&o.ttw, "ttw", 0, "override TIMETOWASTE")
	fs.BoolVar(&o.hier, "hierarchy", false, "print the final resource hierarchy")
	fs.BoolVar(&o.judge, "judge", true, "judge the findings against the paper's expectations")
	fs.StringVar(&o.spawn, "spawn", "intercept", "spawn support method: intercept | attach")
	fs.Uint64Var(&o.seed, "seed", 0, "seed recorded with the run; nothing draws from it, so it changes no output")
	fs.StringVar(&o.pcl, "pcl", "", "run from a Paradyn Configuration Language file instead")
	fs.StringVar(&o.faults, "faults", "", "fault-injection plan, e.g. 't=2s kill-node node1' (see FAULTS.md)")
	fs.StringVar(&o.trace, "trace", "", "write the merged event trace to this file (see TRACING.md)")
	fs.StringVar(&o.traceFmt, "trace-format", "perfetto", "trace file format: perfetto (Chrome trace-event JSON) | csv")
	fs.BoolVar(&o.critPath, "critical-path", false, "trace the run and print the critical-path analysis")
	fs.StringVar(&o.record, "record", "", "record the session's analysis-plane event stream to this archive (see REPLAY.md)")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded session archive offline instead of running a program")
	fs.StringVar(&o.db, "db", "", "record the run straight into this experiment store (see PERFDB.md)")
	fs.StringVar(&o.dbLabel, "db-label", "", "label for the stored run (with -db)")
	fs.Float64Var(&o.wifSync, "what-if-sync", 0, "replay only: override the recorded SyncWaitingTime threshold")
	fs.Float64Var(&o.wifIO, "what-if-io", 0, "replay only: override the recorded IOBlockingTime threshold")
	fs.Float64Var(&o.wifCPU, "what-if-cpu", 0, "replay only: override the recorded CPUbound threshold")
	fs.BoolVar(&o.wireStats, "transport-stats", false, "print one wire-plane counter summary line per channel after the run")

	fs.StringVar(&o.store, "store", "", "experiment store directory (add, pull and serve create it if missing)")
	fs.StringVar(&o.label, "label", "", "label for the run being added")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the chosen listen address to this file (for scripts using :0)")
	fs.BoolVar(&o.all, "all", false, "fetch every remote run not already held locally")
	fs.StringVar(&o.syncFaults, "sync-faults", "", "fault plan shaping transfer traffic (drop-transport chan=sync, degrade-link); see FAULTS.md")
	fs.IntVar(&o.chunkBytes, "chunk-bytes", perfdb.DefaultSyncChunkBytes, "transfer granularity in bytes")
	fs.StringVar(&o.format, "format", "text", "output format: text or json (field names documented in PERFDB.md)")
	fs.StringVar(&o.from, "from", "", "restrict the comparison to virtual times >= this duration (e.g. 1.5s)")
	fs.StringVar(&o.to, "to", "", "restrict the comparison to virtual times < this duration")
	fs.BoolVar(&o.sinceFault, "since-fault", false, "anchor the window at the new run's first fired fault")
	fs.Float64Var(&o.alpha, "alpha", 0.05, "two-sided significance level: 0.10, 0.05 or 0.01")
	fs.Float64Var(&o.minEffect, "min-effect", 0, "suppress verdicts below this |relative change| (trend default 0.1)")
}

// command is one row of pperf's registry. A run mode is picked by its mode
// flag, named like the row, and refuses any operand (flag parsing stops at
// the first one, so a flag after it would be silently lost); a db verb is
// picked by the operand after `pperf db` and reads -store besides its own
// flags.
type command struct {
	name  string
	db    bool
	flags []string // the flags it reads, in the order a refusal lists them

	// The db verbs' help text and operand count.
	operands string   // operand synopsis for usage lines
	summary  []string // first line is the one-line summary
	minArgs  int
	maxArgs  int
	argsWhat string // error text when the operand count is wrong

	run func(o *opts, operands []string) int // returns the exit code
}

// commands is the registry: the run modes in mode-flag priority order, then
// the db verbs in help order (help joins in init, as it reads the registry).
var commands = []*command{
	{name: "pcl", run: runPCL},
	{name: "list", run: runList},
	{
		name:  "replay",
		flags: []string{"hierarchy", "judge", "trace", "trace-format", "critical-path", "what-if-sync", "what-if-io", "what-if-cpu"},
		run:   runReplay,
	},
	{
		name: "prog",
		flags: []string{"impl", "iterations", "np", "ttw", "spawn", "seed", "faults", "hierarchy", "judge", "trace",
			"trace-format", "critical-path", "record", "db", "db-label", "transport-stats"},
		run: runProg,
	},
	{
		name: "add", db: true, operands: "FILE",
		summary: []string{
			"ingest a recorded archive into the store,",
			"replaying it once to stamp the Consultant verdict",
		},
		flags:   []string{"label"},
		minArgs: 1, maxArgs: 1, argsWhat: "one archive file",
		run: stored(true, dbAdd),
	},
	{
		name: "list", db: true,
		summary:  []string{"list stored runs"},
		argsWhat: "no arguments",
		run:      stored(false, dbList),
	},
	{
		name: "show", db: true, operands: "ID",
		summary: []string{"show one run's metadata and collected series"},
		flags:   []string{"format"},
		minArgs: 1, maxArgs: 1, argsWhat: "one run ID",
		run: stored(false, dbShow),
	},
	{
		name: "diff", db: true, operands: "A B",
		summary: []string{
			"compare two stored runs (A = baseline); exits 3 when a",
			"significant regression is found; -from/-to/-since-fault",
			"restrict the comparison to a virtual-time window",
		},
		flags:   []string{"format", "from", "to", "since-fault", "alpha", "min-effect"},
		minArgs: 2, maxArgs: 2, argsWhat: "two run IDs (baseline first)",
		run: stored(false, dbDiff),
	},
	{
		name: "trend", db: true, operands: "PROG",
		summary: []string{
			"fit every series of PROG's stored runs against the run index;",
			"exits 3 when any series is DRIFTING",
		},
		flags:   []string{"format", "alpha", "min-effect"},
		minArgs: 1, maxArgs: 1, argsWhat: "one program name",
		run: stored(false, dbTrend),
	},
	{
		name: "rm", db: true, operands: "ID",
		summary: []string{"remove a run from the store"},
		minArgs: 1, maxArgs: 1, argsWhat: "one run ID",
		run: stored(false, dbRemove),
	},
	{
		name: "gc", db: true,
		summary:  []string{"delete unreferenced files under the store's runs/ directory"},
		argsWhat: "no arguments",
		run:      stored(false, dbGC),
	},
	{
		name: "serve", db: true, operands: "ADDR",
		summary: []string{
			"serve the store to db push/pull peers (ADDR like",
			"127.0.0.1:7077; :0 picks a free port); blocks until SIGINT",
		},
		flags:   []string{"addr-file"},
		minArgs: 1, maxArgs: 1, argsWhat: "a listen address",
		run: stored(true, dbServe),
	},
	{
		name: "push", db: true, operands: "RUN ADDR",
		summary: []string{
			"stream one stored run to the store served at ADDR",
			"(chunk-resumable; identical content is a no-op)",
		},
		flags:   []string{"sync-faults", "chunk-bytes"},
		minArgs: 2, maxArgs: 2, argsWhat: "a run ID and a peer address",
		run: stored(false, dbPush),
	},
	{
		name: "pull", db: true, operands: "ADDR [RUN|--all]",
		summary: []string{
			"fetch one remote run — or, with --all, every remote run",
			"not already held — into the store under fresh local IDs",
		},
		flags:   []string{"all", "sync-faults", "chunk-bytes"},
		minArgs: 1, maxArgs: 2, argsWhat: "a peer address and optionally a run ID (or --all)",
		run: stored(true, dbPull),
	},
}

func init() {
	commands = append(commands, &command{
		name: "help", db: true, operands: "[command]",
		summary: []string{"show usage, or one command's flags and operands"},
		maxArgs: 1, argsWhat: "at most one command name",
		run: dbHelp,
	})
}

// run parses args against the one flag table, picks the command, refuses a
// flag that command does not read and runs it. It returns pperf's exit code;
// any code but 0 discards the files the run opened.
func run(args []string) int {
	o := &opts{}
	fs := flag.NewFlagSet("pperf", flag.ContinueOnError)
	o.define(fs)
	db := len(args) > 0 && args[0] == "db"
	var c *command
	fs.Usage = func() {
		switch {
		case c != nil:
			printDBCommandHelp(os.Stderr, c)
		case db:
			printDBUsage(os.Stderr)
		default:
			fmt.Fprintf(os.Stderr, "Usage of %s:\n", os.Args[0])
			var names []string
			for _, m := range commands {
				if !m.db {
					names = append(append(names, m.name), m.flags...)
				}
			}
			printFlags(os.Stderr, names)
		}
	}

	if db {
		// Flags may precede the verb or follow it: parse up to the verb,
		// then the rest.
		if fs.Parse(args[1:]) != nil {
			return 2
		}
		if fs.NArg() == 0 {
			printDBUsage(os.Stderr)
			return 2
		}
		if c = findVerb(fs.Arg(0)); c == nil {
			fmt.Fprintf(os.Stderr, "pperf db: unknown command %q\n", fs.Arg(0))
			printDBUsage(os.Stderr)
			return 2
		}
		if fs.Parse(fs.Args()[1:]) != nil {
			return 2
		}
	} else {
		if err := fs.Parse(args); err != nil {
			if err == flag.ErrHelp {
				return 0
			}
			return 2
		}
		for _, m := range commands {
			if f := fs.Lookup(m.name); !m.db && f.Value.String() != f.DefValue {
				c = m
				break
			}
		}
		if c == nil {
			return fail(2, "pperf:", "-prog is required (try -list)")
		}
	}

	fs.Visit(func(f *flag.Flag) { o.given = append(o.given, f.Name) })
	if msg := c.refusal(o.given); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		return 2
	}
	if c.db {
		if fs.NArg() < c.minArgs || fs.NArg() > c.maxArgs {
			return fail(2, "pperf db:", c.name+" takes "+c.argsWhat)
		}
		if o.format != "text" && o.format != "json" {
			return fail(2, "pperf db:", fmt.Sprintf("unknown format %q (want text or json)", o.format))
		}
		if o.chunkBytes < 1 || o.chunkBytes > perfdb.MaxSyncChunkBytes {
			return fail(2, "pperf db:", fmt.Sprintf("-chunk-bytes %d: want 1 to %d", o.chunkBytes, perfdb.MaxSyncChunkBytes))
		}
		if o.syncFaults != "" {
			var err error
			if o.syncPlan, err = faults.Parse(o.syncFaults); err != nil {
				return fail(2, "pperf db:", err)
			}
		}
	} else if fs.NArg() > 0 {
		return fail(2, "pperf:", fmt.Sprintf("-%s takes no operands, got %q", c.name, fs.Arg(0)))
	}
	code := c.run(o, fs.Args())
	if code != 0 {
		o.out.discard()
	}
	return code
}

// refusal is the one-line text pperf exits 2 on when a flag was given that c
// does not read (the first in name order), or "" when c reads them all.
func (c *command) refusal(given []string) string {
	for _, name := range given {
		if name == c.name && !c.db || name == "store" && c.db || slices.Contains(c.flags, name) {
			continue
		}
		if c.db {
			return fmt.Sprintf("pperf db %s: flag -%s is not accepted by %s (see `pperf db help %s`)", c.name, name, c.name, c.name)
		}
		reads := "no other flag"
		if len(c.flags) > 0 {
			reads = "only: " + strings.Join(c.flags, " ")
		}
		return fmt.Sprintf("pperf: -%s cannot be combined with -%s (it reads %s)", name, c.name, reads)
	}
	return ""
}

// findVerb resolves a db verb against the registry.
func findVerb(name string) *command {
	for _, c := range commands {
		if c.db && c.name == name {
			return c
		}
	}
	return nil
}

// fail prints msg on stderr after prefix ("pperf:" or "pperf db:") and
// returns code.
func fail(code int, prefix string, msg any) int {
	fmt.Fprintln(os.Stderr, prefix, msg)
	return code
}

// printFlags prints the named flags of the table as flag.PrintDefaults does.
func printFlags(w io.Writer, names []string) {
	all, some := flag.NewFlagSet("", flag.ContinueOnError), flag.NewFlagSet("", flag.ContinueOnError)
	new(opts).define(all)
	for _, name := range names {
		if f := all.Lookup(name); some.Lookup(name) == nil {
			some.Var(f.Value, f.Name, f.Usage)
		}
	}
	some.SetOutput(w)
	some.PrintDefaults()
}

// printDBUsage renders the registry-driven usage text of `pperf db`.
func printDBUsage(w io.Writer) {
	fmt.Fprint(w, "Usage: pperf db -store DIR <command> [flags] [operands]\n\nCommands:\n")
	for _, c := range commands {
		if !c.db {
			continue
		}
		head := c.name
		if c.operands != "" {
			head += " " + c.operands
		}
		fmt.Fprintf(w, "  %-14s %s\n", head, c.summary[0])
		for _, line := range c.summary[1:] {
			fmt.Fprintf(w, "  %-14s %s\n", "", line)
		}
	}
	fmt.Fprint(w, "\nFlags may precede or follow the command; each command accepts only\nits own (`pperf db help <command>` lists them).\n")
}

// printDBCommandHelp renders one verb's synopsis and flags.
func printDBCommandHelp(w io.Writer, c *command) {
	head := "pperf db -store DIR " + c.name
	if c.name == "help" { // the one verb without a store
		head = "pperf db " + c.name
	}
	if c.operands != "" {
		head += " [flags] " + c.operands
	}
	fmt.Fprintf(w, "Usage: %s\n\n", head)
	for _, line := range c.summary {
		fmt.Fprintf(w, "  %s\n", line)
	}
	if len(c.flags) > 0 {
		fmt.Fprint(w, "\nFlags:\n")
		printFlags(w, c.flags)
	}
}
