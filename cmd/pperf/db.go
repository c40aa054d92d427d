package main

// The `pperf db` command family is a registry of per-verb subcommands,
// each with its own FlagSet. Flags may appear before the verb (the
// historical calling convention, still used by scripts) or after it; a
// flag that the chosen verb does not accept is an error either way, so
// `db diff -all A B` fails instead of silently ignoring -all.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pperf/internal/faults"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/sim"
)

// dbOpts holds every db flag value; each verb registers only the subset
// it accepts.
type dbOpts struct {
	store      string
	label      string
	addrFile   string
	pullAll    bool
	syncFaults string
	chunkBytes int
	format     string
	from       string
	to         string
	sinceFault bool
	alpha      float64
	minEffect  float64
}

// newDBOpts returns the defaults every parse starts from.
func newDBOpts() *dbOpts {
	return &dbOpts{chunkBytes: perfdb.DefaultSyncChunkBytes, format: "text", alpha: 0.05}
}

// dbFlagDefs registers one named flag onto a FlagSet, binding it to the
// shared option struct. Defaults read the current value so a flag given
// before the verb survives the per-verb re-parse.
var dbFlagDefs = map[string]func(fs *flag.FlagSet, o *dbOpts){
	"label": func(fs *flag.FlagSet, o *dbOpts) {
		fs.StringVar(&o.label, "label", o.label, "label for the run being added")
	},
	"addr-file": func(fs *flag.FlagSet, o *dbOpts) {
		fs.StringVar(&o.addrFile, "addr-file", o.addrFile, "write the chosen listen address to this file (for scripts using :0)")
	},
	"all": func(fs *flag.FlagSet, o *dbOpts) {
		fs.BoolVar(&o.pullAll, "all", o.pullAll, "fetch every remote run not already held locally")
	},
	"sync-faults": func(fs *flag.FlagSet, o *dbOpts) {
		fs.StringVar(&o.syncFaults, "sync-faults", o.syncFaults, "fault plan shaping transfer traffic (drop-transport chan=sync, degrade-link); see FAULTS.md")
	},
	"chunk-bytes": func(fs *flag.FlagSet, o *dbOpts) {
		fs.IntVar(&o.chunkBytes, "chunk-bytes", o.chunkBytes, "transfer granularity in bytes")
	},
	"format": func(fs *flag.FlagSet, o *dbOpts) {
		fs.StringVar(&o.format, "format", o.format, "output format: text or json (field names documented in PERFDB.md)")
	},
	"from": func(fs *flag.FlagSet, o *dbOpts) {
		fs.StringVar(&o.from, "from", o.from, "restrict the comparison to virtual times >= this duration (e.g. 1.5s)")
	},
	"to": func(fs *flag.FlagSet, o *dbOpts) {
		fs.StringVar(&o.to, "to", o.to, "restrict the comparison to virtual times < this duration")
	},
	"since-fault": func(fs *flag.FlagSet, o *dbOpts) {
		fs.BoolVar(&o.sinceFault, "since-fault", o.sinceFault, "anchor the window at the new run's first fired fault")
	},
	"alpha": func(fs *flag.FlagSet, o *dbOpts) {
		fs.Float64Var(&o.alpha, "alpha", o.alpha, "two-sided significance level: 0.10, 0.05 or 0.01")
	},
	"min-effect": func(fs *flag.FlagSet, o *dbOpts) {
		fs.Float64Var(&o.minEffect, "min-effect", o.minEffect, "suppress verdicts below this |relative change| (trend default 0.1)")
	},
}

// dbCommand is one verb of the registry.
type dbCommand struct {
	name     string
	operands string   // operand synopsis for usage lines
	summary  []string // help text; first line is the one-line summary
	flags    []string // accepted flag names (beyond the global -store)
	minArgs  int
	maxArgs  int
	argsWhat string // error text when the operand count is wrong
	noStore  bool   // runs without -store (help)
	run      func(st *perfdb.Store, o *dbOpts, operands []string) int
}

// dbCommands is the registry, in help order.
var dbCommands = []*dbCommand{
	{
		name: "add", operands: "FILE",
		summary: []string{
			"ingest a recorded archive into the store,",
			"replaying it once to stamp the Consultant verdict",
		},
		flags:   []string{"label"},
		minArgs: 1, maxArgs: 1, argsWhat: "one archive file",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			return dbAdd(st, operands[0], o.label)
		},
	},
	{
		name:     "list",
		summary:  []string{"list stored runs"},
		argsWhat: "no arguments",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			for _, m := range st.Runs() {
				fmt.Println(m.Describe())
				if m.Verdict != "" {
					fmt.Printf("       consultant: %s\n", m.Verdict)
				}
			}
			return 0
		},
	},
	{
		name: "show", operands: "ID",
		summary: []string{"show one run's metadata and collected series"},
		flags:   []string{"format"},
		minArgs: 1, maxArgs: 1, argsWhat: "one run ID",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			return dbShow(st, operands[0], o)
		},
	},
	{
		name: "diff", operands: "A B",
		summary: []string{
			"compare two stored runs (A = baseline); exits 3 when a",
			"significant regression is found; -from/-to/-since-fault",
			"restrict the comparison to a virtual-time window",
		},
		flags:   []string{"format", "from", "to", "since-fault", "alpha", "min-effect"},
		minArgs: 2, maxArgs: 2, argsWhat: "two run IDs (baseline first)",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			return dbDiff(st, operands[0], operands[1], o)
		},
	},
	{
		name: "trend", operands: "PROG",
		summary: []string{
			"fit every series of PROG's stored runs against the run index;",
			"exits 3 when any series is DRIFTING",
		},
		flags:   []string{"format", "alpha", "min-effect"},
		minArgs: 1, maxArgs: 1, argsWhat: "one program name",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			return dbTrend(st, operands[0], o)
		},
	},
	{
		name: "rm", operands: "ID",
		summary: []string{"remove a run from the store"},
		minArgs: 1, maxArgs: 1, argsWhat: "one run ID",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			if err := st.Remove(operands[0]); err != nil {
				fmt.Fprintln(os.Stderr, "pperf db:", err)
				return 1
			}
			return 0
		},
	},
	{
		name:     "gc",
		summary:  []string{"delete unreferenced files under the store's runs/ directory"},
		argsWhat: "no arguments",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			removed, err := st.GC()
			if err != nil {
				fmt.Fprintln(os.Stderr, "pperf db:", err)
				return 1
			}
			for _, name := range removed {
				fmt.Println("removed", name)
			}
			fmt.Printf("%d files removed\n", len(removed))
			return 0
		},
	},
	{
		name: "serve", operands: "ADDR",
		summary: []string{
			"serve the store to db push/pull peers (ADDR like",
			"127.0.0.1:7077; :0 picks a free port); blocks until SIGINT",
		},
		flags:   []string{"addr-file"},
		minArgs: 1, maxArgs: 1, argsWhat: "a listen address",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			return dbServe(st, operands[0], o.addrFile)
		},
	},
	{
		name: "push", operands: "RUN ADDR",
		summary: []string{
			"stream one stored run to the store served at ADDR",
			"(chunk-resumable; identical content is a no-op)",
		},
		flags:   []string{"sync-faults", "chunk-bytes"},
		minArgs: 2, maxArgs: 2, argsWhat: "a run ID and a peer address",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			cfg, ok := syncConfig(o.syncFaults, o.chunkBytes)
			if !ok {
				return 2
			}
			return dbPush(st, operands[0], operands[1], cfg)
		},
	},
	{
		name: "pull", operands: "ADDR [RUN|--all]",
		summary: []string{
			"fetch one remote run — or, with --all, every remote run",
			"not already held — into the store under fresh local IDs",
		},
		flags:   []string{"all", "sync-faults", "chunk-bytes"},
		minArgs: 1, maxArgs: 2, argsWhat: "a peer address and optionally a run ID (or --all)",
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			runID := ""
			if len(operands) == 2 {
				runID = operands[1]
			}
			if runID == "--all" || runID == "-all" {
				runID = ""
			} else if runID == "" && !o.pullAll {
				fmt.Fprintln(os.Stderr, "pperf db: pull needs a run ID, or --all to fetch every remote run")
				return 2
			}
			cfg, ok := syncConfig(o.syncFaults, o.chunkBytes)
			if !ok {
				return 2
			}
			return dbPull(st, operands[0], runID, cfg)
		},
	},
}

// The help verb reads the registry it lives in, so it joins in init to
// avoid an initialization cycle.
func init() {
	dbCommands = append(dbCommands, &dbCommand{
		name: "help", operands: "[command]",
		summary: []string{"show usage, or one command's flags and operands"},
		maxArgs: 1, argsWhat: "at most one command name",
		noStore: true,
		run: func(st *perfdb.Store, o *dbOpts, operands []string) int {
			if len(operands) == 0 {
				printDBUsage(os.Stdout)
				return 0
			}
			c := findDBCommand(operands[0])
			if c == nil {
				fmt.Fprintf(os.Stderr, "pperf db: unknown command %q\n", operands[0])
				return 2
			}
			printDBCommandHelp(os.Stdout, c)
			return 0
		},
	})
}

// findDBCommand resolves a verb name against the registry.
func findDBCommand(name string) *dbCommand {
	for _, c := range dbCommands {
		if c.name == name {
			return c
		}
	}
	return nil
}

// registerStore registers the global -store flag.
func registerStore(fs *flag.FlagSet, o *dbOpts) {
	fs.StringVar(&o.store, "store", o.store, "experiment store directory (created if missing)")
}

// printDBUsage renders the registry-driven usage text.
func printDBUsage(w io.Writer) {
	fmt.Fprint(w, "Usage: pperf db -store DIR <command> [flags] [operands]\n\nCommands:\n")
	for _, c := range dbCommands {
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
func printDBCommandHelp(w io.Writer, c *dbCommand) {
	head := "pperf db -store DIR " + c.name
	if c.noStore {
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
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		o := newDBOpts()
		for _, name := range c.flags {
			dbFlagDefs[name](fs, o)
		}
		fs.SetOutput(w)
		fs.PrintDefaults()
	}
}

// dbMain implements `pperf db`: resolve the verb, reject flags the verb
// does not accept (wherever they appeared), then dispatch.
func dbMain(args []string) int {
	o := newDBOpts()

	// First pass: a union FlagSet holding every flag, so the historical
	// flags-before-verb convention keeps parsing. It stops at the verb
	// (the first non-flag argument).
	union := flag.NewFlagSet("pperf db", flag.ContinueOnError)
	union.SetOutput(os.Stderr)
	union.Usage = func() { printDBUsage(os.Stderr) }
	registerStore(union, o)
	for _, def := range dbFlagDefs {
		def(union, o)
	}
	if err := union.Parse(args); err != nil {
		return 2
	}
	rest := union.Args()
	if len(rest) == 0 {
		printDBUsage(os.Stderr)
		return 2
	}
	cmd := findDBCommand(rest[0])
	if cmd == nil {
		fmt.Fprintf(os.Stderr, "pperf db: unknown command %q\n", rest[0])
		printDBUsage(os.Stderr)
		return 2
	}

	// Flags set before the verb must be ones this verb accepts.
	allowed := map[string]bool{"store": true}
	for _, name := range cmd.flags {
		allowed[name] = true
	}
	badFlag := ""
	union.Visit(func(f *flag.Flag) {
		if !allowed[f.Name] {
			badFlag = f.Name
		}
	})
	if badFlag != "" {
		fmt.Fprintf(os.Stderr, "pperf db %s: flag -%s is not accepted by %s (see `pperf db help %s`)\n",
			cmd.name, badFlag, cmd.name, cmd.name)
		return 2
	}

	// Second pass: the verb's own FlagSet over the post-verb arguments.
	// Defaults read the current values, so pre-verb settings carry over;
	// a flag the verb does not accept is now an unknown-flag error.
	vfs := flag.NewFlagSet("pperf db "+cmd.name, flag.ContinueOnError)
	vfs.SetOutput(os.Stderr)
	vfs.Usage = func() { printDBCommandHelp(os.Stderr, cmd) }
	registerStore(vfs, o)
	for _, name := range cmd.flags {
		dbFlagDefs[name](vfs, o)
	}
	if err := vfs.Parse(rest[1:]); err != nil {
		return 2
	}
	operands := vfs.Args()
	if len(operands) < cmd.minArgs || len(operands) > cmd.maxArgs {
		fmt.Fprintf(os.Stderr, "pperf db: %s takes %s\n", cmd.name, cmd.argsWhat)
		return 2
	}
	if o.format != "text" && o.format != "json" {
		fmt.Fprintf(os.Stderr, "pperf db: unknown format %q (want text or json)\n", o.format)
		return 2
	}

	var st *perfdb.Store
	if !cmd.noStore {
		if o.store == "" {
			fmt.Fprintln(os.Stderr, "pperf db: -store is required")
			return 2
		}
		var err error
		st, err = perfdb.Open(o.store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pperf db:", err)
			return 1
		}
	}
	return cmd.run(st, o, operands)
}

// dbAdd ingests one recorded archive, replaying it offline to compute the
// Consultant verdict stored in the index.
func dbAdd(st *perfdb.Store, path, label string) int {
	a, err := perfdb.LoadAny(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	if note := a.TruncationNote(); note != "" {
		fmt.Fprintln(os.Stderr, "pperf db:", note)
	}
	verdict := ""
	if res, err := pperfmark.Replay(a); err != nil {
		fmt.Fprintf(os.Stderr, "pperf db: no verdict (replay failed: %v)\n", err)
	} else if res.PC != nil {
		verdict = res.PC.Export().String()
	}
	m, err := st.AddFile(path, perfdb.AddMeta{Label: label, Verdict: verdict})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	fmt.Printf("stored %s (%d events, %d bytes compacted)\n", m.ID, m.Events, m.Bytes)
	return 0
}

// dbShow prints one stored run: index entry, verdict, collected series.
func dbShow(st *perfdb.Store, id string, o *dbOpts) int {
	rv, err := st.OpenRun(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	if o.format == "json" {
		return emitJSON(rv.SummaryJSON())
	}
	fmt.Println(rv.Meta.Describe())
	if rv.Meta.Verdict != "" {
		fmt.Printf("consultant: %s\n", rv.Meta.Verdict)
	}
	fmt.Printf("coverage: %.2f, %d processes\n", rv.Coverage(), rv.ProcessCount())
	for _, p := range rv.Pairs() {
		s := rv.SeriesFor(p)
		h := s.Histogram()
		fmt.Printf("  %-22s @ %-40s total=%-12.6g bins=%d @ %v\n",
			p.Metric, p.Focus, h.Total(), h.NumFilled(), h.BinWidth())
	}
	return 0
}

// compareOptions translates the diff flags into the library's options,
// parsing the window endpoints as durations since run start.
func compareOptions(o *dbOpts) (perfdb.CompareOptions, error) {
	opts := perfdb.CompareOptions{
		SinceFault: o.sinceFault,
		Alpha:      o.alpha,
		MinEffect:  o.minEffect,
	}
	parseEdge := func(name, val string) (sim.Time, error) {
		d, err := time.ParseDuration(val)
		if err != nil {
			return 0, fmt.Errorf("bad -%s %q: %v", name, val, err)
		}
		if d < 0 {
			return 0, fmt.Errorf("bad -%s %q: negative", name, val)
		}
		return sim.Time(d), nil
	}
	var err error
	if o.from != "" {
		if opts.Window.From, err = parseEdge("from", o.from); err != nil {
			return opts, err
		}
	}
	if o.to != "" {
		if opts.Window.To, err = parseEdge("to", o.to); err != nil {
			return opts, err
		}
	}
	return opts, nil
}

// dbDiff renders the cross-run comparison; a significant regression makes
// the exit status 3 so scripts (and `make perfdb-golden`) can gate on it.
func dbDiff(st *perfdb.Store, baseID, newID string, o *dbOpts) int {
	base, err := st.OpenRun(baseID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	neu, err := st.OpenRun(newID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	opts, err := compareOptions(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 2
	}
	rep, err := perfdb.Compare(base, neu, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	return emitReport(rep, o.format, len(rep.Regressions()) > 0)
}

// dbTrend fits every series of a program's stored runs against the run
// index; any DRIFTING series makes the exit status 3.
func dbTrend(st *perfdb.Store, program string, o *dbOpts) int {
	metas := st.RunsFor(program)
	if len(metas) < 3 {
		fmt.Fprintf(os.Stderr, "pperf db: trend needs at least 3 stored runs of %q, have %d\n",
			program, len(metas))
		return 1
	}
	views := make([]*perfdb.RunView, 0, len(metas))
	for _, m := range metas {
		rv, err := st.OpenRun(m.ID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pperf db:", err)
			return 1
		}
		views = append(views, rv)
	}
	rep, err := perfdb.Trend(views, perfdb.TrendOptions{Alpha: o.alpha, MinEffect: o.minEffect})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	return emitReport(rep, o.format, len(rep.Drifting()) > 0)
}

// emitReport prints a diff or trend report as text or JSON; the exit status
// is 3 when the report flagged anything, so scripts can gate on it.
func emitReport(rep interface {
	Render() string
	RenderJSON() ([]byte, error)
}, format string, flagged bool) int {
	if format == "json" {
		if code := emitJSON(rep.RenderJSON()); code != 0 {
			return code
		}
	} else {
		fmt.Print(rep.Render())
	}
	if flagged {
		return 3
	}
	return 0
}

// emitJSON writes one rendered document to stdout.
func emitJSON(doc []byte, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	os.Stdout.Write(doc)
	return 0
}

// syncConfig builds the push/pull client configuration from the CLI
// flags, parsing the optional fault plan.
func syncConfig(faultSpec string, chunkBytes int) (perfdb.SyncConfig, bool) {
	cfg := perfdb.DefaultSyncConfig()
	cfg.ChunkBytes = chunkBytes
	if faultSpec != "" {
		plan, err := faults.Parse(faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pperf db:", err)
			return cfg, false
		}
		cfg.Faults = plan
	}
	return cfg, true
}

// dbServe serves the store until SIGINT/SIGTERM.
func dbServe(st *perfdb.Store, addr, addrFile string) int {
	srv, err := perfdb.Serve(st, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	fmt.Printf("pperf db: serving store %s at %s\n", st.Dir(), srv.Addr())
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pperf db:", err)
			srv.Close()
			return 1
		}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	return 0
}

// dbPush streams one stored run to a served peer store.
func dbPush(st *perfdb.Store, runID, addr string, cfg perfdb.SyncConfig) int {
	res, err := perfdb.Push(st, runID, addr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	switch {
	case res.Deduped:
		fmt.Printf("peer already has %s as %s (identical content)\n", res.RunID, res.RemoteID)
	default:
		resumed := ""
		if res.ResumedAt > 0 {
			resumed = fmt.Sprintf(", resumed at byte %d", res.ResumedAt)
		}
		fmt.Printf("pushed %s -> %s (%d bytes%s)\n", res.RunID, res.RemoteID, res.Bytes, resumed)
	}
	if res.Warning != "" {
		fmt.Fprintln(os.Stderr, "pperf db: warning:", res.Warning)
	}
	if res.Stats.Retries > 0 {
		fmt.Fprintf(os.Stderr, "pperf db: sync channel: %d frames, %d retries, %d reconnects\n",
			res.Stats.Frames, res.Stats.Retries, res.Stats.Reconnects)
	}
	return 0
}

// dbPull fetches one (or every) remote run into the local store.
func dbPull(st *perfdb.Store, addr, runID string, cfg perfdb.SyncConfig) int {
	results, stats, err := perfdb.Pull(st, addr, runID, cfg)
	for _, r := range results {
		switch {
		case r.Skipped:
			fmt.Printf("already have %s as %s (identical content)\n", r.RemoteID, r.LocalID)
		case r.LocalID != "":
			resumed := ""
			if r.ResumedAt > 0 {
				resumed = fmt.Sprintf(", resumed at byte %d", r.ResumedAt)
			}
			fmt.Printf("pulled %s -> %s (%d bytes%s)\n", r.RemoteID, r.LocalID, r.Bytes, resumed)
		}
		if r.Warning != "" {
			fmt.Fprintln(os.Stderr, "pperf db: warning:", r.Warning)
		}
	}
	if stats != nil && stats.Retries > 0 {
		fmt.Fprintf(os.Stderr, "pperf db: sync channel: %d frames, %d retries, %d reconnects\n",
			stats.Frames, stats.Retries, stats.Reconnects)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf db:", err)
		return 1
	}
	return 0
}
