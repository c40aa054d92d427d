package main

// The run modes: -prog runs a program live, -replay re-analyzes a
// recording, -pcl runs from a PCL file and -list prints the suite.

import (
	"fmt"
	"os"
	"slices"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/daemon"
	"pperf/internal/faults"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// outputs are the files a run writes. run discards them on any exit code
// but 0: the -trace file, and the -record archive or the -db reservation.
// Abort and Discard do nothing to a recording already closed, so a failure
// after the commit keeps the stored run.
type outputs struct {
	trace *os.File
	rec   *perfdb.StreamRecorder
	store *perfdb.Store
}

func (out *outputs) discard() {
	if out.trace != nil {
		out.trace.Close()
		os.Remove(out.trace.Name())
	}
	switch {
	case out.store != nil && out.rec != nil:
		out.store.Discard(out.rec) // abort the recording and release its reservation
	case out.rec != nil:
		out.rec.Abort()
	}
}

// openTrace checks -trace-format and creates the -trace file ahead of the
// run, so a bad value or an unwritable path fails before any work.
func (o *opts) openTrace() int {
	if o.traceFmt != "perfetto" && o.traceFmt != "csv" {
		return fail(2, "pperf:", fmt.Sprintf("unknown -trace-format %q (perfetto | csv)", o.traceFmt))
	}
	if o.trace == "" {
		return 0
	}
	f, err := os.Create(o.trace)
	if err != nil {
		return fail(1, "pperf:", err)
	}
	o.out.trace = f
	return 0
}

// runProg runs one suite program live. Every output file is opened before
// the run, so an unwritable path fails before any work. Recording streams
// through the chunked writer, into the -record file or the -db store: events
// land on disk as the run produces them instead of accumulating in memory.
func runProg(o *opts, _ []string) int {
	spawn, ok := daemon.ParseSpawnMethod(o.spawn)
	if !ok {
		return fail(2, "pperf:", fmt.Sprintf("unknown -spawn %q (intercept | attach)", o.spawn))
	}
	impl, err := mpi.ParseImpl(o.impl)
	if err != nil {
		return fail(2, "pperf:", err)
	}
	opt := pperfmark.RunOptions{
		Impl:   impl,
		Seed:   o.seed,
		Spawn:  spawn,
		Params: pperfmark.Params{Iterations: o.iters, Procs: o.np, TimeToWaste: o.ttw},
	}
	// The run's own rule refuses an unknown program or a negative size.
	if _, err := pperfmark.NewSpec(o.prog, opt); err != nil {
		return fail(2, "pperf:", err)
	}
	if o.faults != "" {
		if opt.Faults, err = faults.Parse(o.faults); err != nil {
			return fail(2, "pperf:", err)
		}
	}
	if o.trace != "" || o.critPath {
		opt.Trace = &trace.Config{}
	}
	if o.record != "" && o.db != "" {
		return fail(2, "pperf:", "-record and -db are mutually exclusive (the store holds the recording)")
	}
	if o.dbLabel != "" && o.db == "" {
		return fail(2, "pperf:", "-db-label requires -db (it labels the stored run)")
	}
	if code := o.openTrace(); code != 0 {
		return code
	}
	switch {
	case o.record != "":
		o.out.rec, err = perfdb.NewStreamRecorder(o.record)
	case o.db != "":
		if o.out.store, err = perfdb.Open(o.db); err == nil {
			o.out.rec, err = o.out.store.NewRecorder()
		}
	}
	if err != nil {
		return fail(1, "pperf:", err)
	}
	if o.out.rec != nil { // never a typed nil in the interface
		opt.Record = o.out.rec
	}
	res, err := pperfmark.Run(o.prog, opt)
	if err != nil {
		return fail(1, "pperf:", err)
	}
	switch {
	case o.out.store != nil:
		verdict := ""
		if res.PC != nil {
			verdict = res.PC.Export().String()
		}
		m, warning, err := o.out.store.Commit(o.out.rec, perfdb.AddMeta{Label: o.dbLabel, Verdict: verdict})
		if err != nil {
			return fail(1, "pperf:", err)
		}
		if warning != "" {
			fmt.Fprintln(os.Stderr, "pperf: warning:", warning)
		}
		fmt.Fprintf(os.Stderr, "pperf: run stored as %s in %s (%d events, %d bytes)\n",
			m.ID, o.out.store.Dir(), m.Events, m.Bytes)
	case o.out.rec != nil:
		if err := o.out.rec.Close(); err != nil {
			return fail(1, "pperf:", err)
		}
		fmt.Fprintf(os.Stderr, "pperf: session recorded to %s (%d events)\n", o.record, o.out.rec.EventCount())
	}
	if code := printResult(res, o); code != 0 {
		return code
	}
	if o.wireStats {
		printWireStats(res)
	}
	return 0
}

// runReplay re-runs the Performance Consultant over a recorded archive,
// under the recorded thresholds or the -what-if-* ones.
func runReplay(o *opts, _ []string) int {
	for _, th := range []struct {
		name string
		v    float64
	}{{"what-if-cpu", o.wifCPU}, {"what-if-io", o.wifIO}, {"what-if-sync", o.wifSync}} {
		if err := core.CheckThreshold(th.v); err != nil && slices.Contains(o.given, th.name) {
			return fail(2, "pperf:", fmt.Sprintf("-%s %v: %v", th.name, th.v, err))
		}
	}
	if code := o.openTrace(); code != 0 {
		return code
	}
	a, err := perfdb.LoadAny(o.replay)
	if err != nil {
		return fail(1, "pperf:", err)
	}
	if note := a.TruncationNote(); note != "" {
		fmt.Fprintln(os.Stderr, "pperf:", note)
	}
	res, err := pperfmark.ReplayWith(a, pperfmark.ReplayOptions{SyncThreshold: o.wifSync, IOThreshold: o.wifIO, CPUThreshold: o.wifCPU})
	if err != nil {
		return fail(1, "pperf:", err)
	}
	return printResult(res, o)
}

// runList prints the suite, one program a line.
func runList(*opts, []string) int {
	fmt.Println("MPI-1 programs (Table 2):")
	for _, n := range pperfmark.MPI1Names() {
		fmt.Printf("  %-18s %s\n", n, pperfmark.Get(n).Description)
	}
	fmt.Println("MPI-2 programs (Table 3):")
	for _, n := range pperfmark.MPI2Names() {
		fmt.Printf("  %-18s %s\n", n, pperfmark.Get(n).Description)
	}
	return 0
}

// printWireStats renders the session's per-channel wire.Stats — one uniform
// summary line per channel in place of the three bespoke counter sets the
// transports used to keep.
func printWireStats(res *pperfmark.Result) {
	if res.Session == nil {
		return
	}
	stats := res.Session.WireStats()
	for _, ch := range []string{wire.ChanCtl, wire.ChanBulk} {
		if st, ok := stats[ch]; ok {
			fmt.Printf("transport %s: %s\n", ch, st.Summary())
		}
	}
}

// printResult renders a run's findings and writes the -trace file. It reads
// everything through the Result's DataSource, so a live run and a replayed
// archive print through the identical path — the replay acceptance bar is
// byte-equal output. A trace asked of a session that has none is refused
// before anything is printed.
func printResult(res *pperfmark.Result, o *opts) int {
	if res.Unsupported != nil {
		o.out.discard() // nothing to trace; a recording is closed by now
		fmt.Printf("%s under %s: %v\n", res.Program, res.Impl, res.Unsupported)
		return 0
	}
	if (o.out.trace != nil || o.critPath) && res.Timeline == nil {
		return fail(1, "pperf:", "no trace in this session (replayed archive was recorded without -trace/-critical-path)")
	}

	fmt.Printf("%s under %s — virtual runtime %v, %d probe executions\n\n",
		res.Program, res.Impl, res.RunTime, res.ProbeExecs)
	if len(res.FaultLog) > 0 {
		fmt.Println("Injected faults:")
		for _, ev := range res.FaultLog {
			fmt.Println("  *", ev)
		}
		fmt.Printf("Data coverage: %.2f\n\n", res.Coverage)
	}
	if res.PC == nil {
		fmt.Println("Performance Consultant: not run in this session")
	} else {
		fmt.Print("Performance Consultant (condensed):\n", res.PC.Render())
	}

	if o.hier {
		fmt.Println("\nResource hierarchy:")
		fmt.Print(res.Source.Hierarchy().Render())
	}
	if tf := o.out.trace; tf != nil {
		if err := writeTrace(tf, o.traceFmt, res.Timeline, res.Source.CounterTracks()); err != nil {
			return fail(1, "pperf:", err)
		}
		st := res.Timeline.Stats()
		fmt.Printf("\nTrace written to %s (%s format, %d shards; spans lost: %d ring-evicted, %d outbox-evicted, %d undelivered)\n",
			tf.Name(), o.traceFmt, st.Shards, st.Dropped, st.OutboxLost, st.Undelivered)
	}
	if o.critPath {
		cp := trace.Analyze(res.Timeline)
		fmt.Println()
		fmt.Print(cp.Render())
	}
	if o.judge {
		v := pperfmark.Judge(res)
		verdict := "Pass"
		if !v.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("\nJudgement vs the paper: %s (paper reports %s)\n", verdict, v.PaperResult)
		for _, d := range v.Details {
			fmt.Println("  +", d)
		}
		for _, p := range v.Problems {
			fmt.Println("  -", p)
		}
	}
	return 0
}

// runPCL drives the tool from a PCL configuration.
func runPCL(o *opts, _ []string) int {
	if err := runFromPCL(o.pcl); err != nil {
		return fail(1, "pperf:", err)
	}
	return 0
}

// runFromPCL drives the tool from a PCL configuration: the daemon
// definition's mpi_implementation attribute picks the personality (§4.1),
// tunable constants configure the Performance Consultant (§5.1.6), embedded
// MDL extends the metric library, and each process block's mpirun command
// line is parsed with the implementation's placement notation (§4.1.2).
func runFromPCL(path string) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cfg, err := mdl.Parse(string(text))
	if err != nil {
		return err
	}
	if len(cfg.Processes) == 0 {
		return fmt.Errorf("PCL file declares no process blocks")
	}
	pcCfg, err := core.ConsultantConfigFromPCL(cfg)
	if err != nil {
		return err
	}
	for _, pr := range cfg.Processes {
		opts, err := core.OptionsFromPCL(cfg, pr.Daemon)
		if err != nil {
			return err
		}
		opts.Nodes, opts.CPUsPerNode = 4, 2
		s, err := core.NewSession(opts)
		if err != nil {
			return err
		}
		// All suite programs are available to PCL process commands.
		for _, name := range pperfmark.Names() {
			p, _, err := pperfmark.Program(name, pperfmark.Params{})
			if err != nil {
				return err
			}
			s.Register(name, p)
		}
		if err := s.LaunchMpirun(pr.Command); err != nil {
			s.Close()
			return fmt.Errorf("process %s: %w", pr.Name, err)
		}
		pc := consultant.New(s.FE, s.Eng, pcCfg)
		if err := pc.Start(); err != nil {
			s.Close()
			return err
		}
		if err := s.Run(); err != nil {
			s.Close()
			return err
		}
		fmt.Printf("process %s (%q) under %s:\n", pr.Name, pr.Command, opts.Impl)
		fmt.Print(pc.Render())
		s.Close()
	}
	return nil
}

// writeTrace exports the merged timeline into f in the requested format and
// closes f. The Perfetto export also carries the front end's folding
// histograms as counter tracks next to the span tracks.
func writeTrace(f *os.File, format string, tl *trace.Timeline, counters []trace.CounterTrack) error {
	var err error
	switch format {
	case "csv":
		err = trace.WriteCSV(f, tl)
	default:
		err = trace.WriteChromeWith(f, tl, counters)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
