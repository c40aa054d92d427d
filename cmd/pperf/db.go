package main

// The `pperf db` verbs, each run against the -store directory. Their rows,
// flags and operand counts are in the registry in main.go.

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/sim"
)

// stored adapts a verb that works on the -store directory. perfdb.Open
// creates a missing store, so a verb that only reads or edits one (creates
// false) refuses a missing directory rather than turn a mistyped -store into
// an empty store.
func stored(creates bool, verb func(st *perfdb.Store, o *opts, operands []string) int) func(*opts, []string) int {
	return func(o *opts, operands []string) int {
		if o.store == "" {
			return fail(2, "pperf db:", "-store is required")
		}
		if _, err := os.Stat(o.store); !creates && os.IsNotExist(err) {
			return fail(1, "pperf db:", "no store at "+o.store)
		}
		st, err := perfdb.Open(o.store)
		if err != nil {
			return fail(1, "pperf db:", err)
		}
		return verb(st, o, operands)
	}
}

// dbHelp prints the usage, or one verb's flags and operands.
func dbHelp(o *opts, operands []string) int {
	if len(operands) == 0 {
		printDBUsage(os.Stdout)
		return 0
	}
	c := findVerb(operands[0])
	if c == nil {
		return fail(2, "pperf db:", fmt.Sprintf("unknown command %q", operands[0]))
	}
	printDBCommandHelp(os.Stdout, c)
	return 0
}

// dbList prints one line per stored run, and its verdict.
func dbList(st *perfdb.Store, o *opts, operands []string) int {
	for _, m := range st.Runs() {
		fmt.Println(m.Describe())
		if m.Verdict != "" {
			fmt.Printf("       consultant: %s\n", m.Verdict)
		}
	}
	return 0
}

// dbRemove removes one run from the store.
func dbRemove(st *perfdb.Store, o *opts, operands []string) int {
	if err := st.Remove(operands[0]); err != nil {
		return fail(1, "pperf db:", err)
	}
	return 0
}

// dbGC deletes the unreferenced files under the store's runs/ directory.
func dbGC(st *perfdb.Store, o *opts, operands []string) int {
	removed, err := st.GC()
	if err != nil {
		return fail(1, "pperf db:", err)
	}
	for _, name := range removed {
		fmt.Println("removed", name)
	}
	fmt.Printf("%d files removed\n", len(removed))
	return 0
}

// dbAdd ingests one recorded archive, replaying it offline to compute the
// Consultant verdict stored in the index.
func dbAdd(st *perfdb.Store, o *opts, operands []string) int {
	a, err := perfdb.LoadAny(operands[0])
	if err != nil {
		return fail(1, "pperf db:", err)
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
	m, err := st.AddFile(operands[0], perfdb.AddMeta{Label: o.label, Verdict: verdict})
	if err != nil {
		return fail(1, "pperf db:", err)
	}
	fmt.Printf("stored %s (%d events, %d bytes)\n", m.ID, m.Events, m.Bytes)
	return 0
}

// dbShow prints one stored run: index entry, verdict, collected series.
func dbShow(st *perfdb.Store, o *opts, operands []string) int {
	rv, err := st.OpenRun(operands[0])
	if err != nil {
		return fail(1, "pperf db:", err)
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
func compareOptions(o *opts) (perfdb.CompareOptions, error) {
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

// dbDiff renders the cross-run comparison of operands A (the baseline) and
// B; a significant regression makes the exit status 3 so scripts (and `make
// perfdb-golden`) can gate on it.
func dbDiff(st *perfdb.Store, o *opts, operands []string) int {
	base, err := st.OpenRun(operands[0])
	if err != nil {
		return fail(1, "pperf db:", err)
	}
	neu, err := st.OpenRun(operands[1])
	if err != nil {
		return fail(1, "pperf db:", err)
	}
	opts, err := compareOptions(o)
	if err != nil {
		return fail(2, "pperf db:", err)
	}
	rep, err := perfdb.Compare(base, neu, opts)
	if err != nil {
		return fail(1, "pperf db:", err)
	}
	return emitReport(rep, o.format, len(rep.Regressions()) > 0)
}

// dbTrend fits every series of a program's stored runs against the run
// index; any DRIFTING series makes the exit status 3.
func dbTrend(st *perfdb.Store, o *opts, operands []string) int {
	metas := st.RunsFor(operands[0])
	if len(metas) < 3 {
		return fail(1, "pperf db:", fmt.Sprintf("trend needs at least 3 stored runs of %q, have %d", operands[0], len(metas)))
	}
	views := make([]*perfdb.RunView, 0, len(metas))
	for _, m := range metas {
		rv, err := st.OpenRun(m.ID)
		if err != nil {
			return fail(1, "pperf db:", err)
		}
		views = append(views, rv)
	}
	rep, err := perfdb.Trend(views, perfdb.TrendOptions{Alpha: o.alpha, MinEffect: o.minEffect})
	if err != nil {
		return fail(1, "pperf db:", err)
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
		return fail(1, "pperf db:", err)
	}
	os.Stdout.Write(doc)
	return 0
}

// syncConfig builds the push/pull client configuration from -chunk-bytes
// and the -sync-faults plan run parsed.
func syncConfig(o *opts) perfdb.SyncConfig {
	cfg := perfdb.DefaultSyncConfig()
	cfg.ChunkBytes, cfg.Faults = o.chunkBytes, o.syncPlan
	return cfg
}

// dbServe serves the store at the operand's address until SIGINT/SIGTERM.
func dbServe(st *perfdb.Store, o *opts, operands []string) int {
	srv, err := perfdb.Serve(st, operands[0])
	if err != nil {
		return fail(1, "pperf db:", err)
	}
	fmt.Printf("pperf db: serving store %s at %s\n", st.Dir(), srv.Addr())
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			srv.Close()
			return fail(1, "pperf db:", err)
		}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	if err := srv.Close(); err != nil {
		return fail(1, "pperf db:", err)
	}
	return 0
}

// dbPush streams one stored run (operand RUN) to the store served at ADDR.
func dbPush(st *perfdb.Store, o *opts, operands []string) int {
	res, err := perfdb.Push(st, operands[0], operands[1], syncConfig(o))
	if err != nil {
		return fail(1, "pperf db:", err)
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

// dbPull fetches one remote run, or with -all (or a --all operand) every
// remote run not already held, into the local store.
func dbPull(st *perfdb.Store, o *opts, operands []string) int {
	runID := ""
	if len(operands) == 2 {
		runID = operands[1]
	}
	if runID == "--all" || runID == "-all" {
		runID = ""
	} else if runID == "" && !o.all {
		return fail(2, "pperf db:", "pull needs a run ID, or --all to fetch every remote run")
	}
	results, stats, err := perfdb.Pull(st, operands[0], runID, syncConfig(o))
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
		return fail(1, "pperf db:", err)
	}
	return 0
}
