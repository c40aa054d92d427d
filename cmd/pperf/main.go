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
	"os"
	"strings"

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

func main() {
	// `pperf db ...` manages an experiment store (see PERFDB.md).
	if len(os.Args) > 1 && os.Args[1] == "db" {
		os.Exit(dbMain(os.Args[2:]))
	}
	var (
		prog      = flag.String("prog", "", "PPerfMark program to run (see -list)")
		implName  = flag.String("impl", "lam", "MPI implementation personality: lam | mpich | mpich2 | reference")
		list      = flag.Bool("list", false, "list available programs and exit")
		iters     = flag.Int("iterations", 0, "override the program's iteration count")
		procs     = flag.Int("np", 0, "override the process count")
		waste     = flag.Int("ttw", 0, "override TIMETOWASTE")
		hier      = flag.Bool("hierarchy", false, "print the final resource hierarchy")
		judge     = flag.Bool("judge", true, "judge the findings against the paper's expectations")
		spawnVia  = flag.String("spawn", "intercept", "spawn support method: intercept | attach")
		seed      = flag.Uint64("seed", 0, "simulation seed")
		pclFile   = flag.String("pcl", "", "run from a Paradyn Configuration Language file instead")
		faultSpec = flag.String("faults", "", "fault-injection plan, e.g. 't=2s kill-node node1' (see FAULTS.md)")
		traceOut  = flag.String("trace", "", "write the merged event trace to this file (see TRACING.md)")
		traceFmt  = flag.String("trace-format", "perfetto", "trace file format: perfetto (Chrome trace-event JSON) | csv")
		critPath  = flag.Bool("critical-path", false, "trace the run and print the critical-path analysis")
		record    = flag.String("record", "", "record the session's analysis-plane event stream to this archive (see REPLAY.md)")
		replay    = flag.String("replay", "", "replay a recorded session archive offline instead of running a program")
		dbDir     = flag.String("db", "", "record the run straight into this experiment store (see PERFDB.md)")
		dbLabel   = flag.String("db-label", "", "label for the stored run (with -db)")
		wifSync   = flag.Float64("what-if-sync", 0, "replay only: override the recorded SyncWaitingTime threshold")
		wifIO     = flag.Float64("what-if-io", 0, "replay only: override the recorded IOBlockingTime threshold")
		wifCPU    = flag.Float64("what-if-cpu", 0, "replay only: override the recorded CPUbound threshold")
		wireStats = flag.Bool("transport-stats", false, "print one wire-plane counter summary line per channel after the run")
	)
	flag.Parse()

	// The mode is the mode flag that is present; each mode reads only its
	// own flags, and any other flag given is refused, not silently ignored.
	mode := "prog"
	switch {
	case *pclFile != "":
		mode = "pcl"
	case *list:
		mode = "list"
	case *replay != "":
		mode = "replay"
	case *prog == "":
		fmt.Fprintln(os.Stderr, "pperf: -prog is required (try -list)")
		os.Exit(2)
	}
	reads := "no other flag"
	if modeFlags[mode] != "" {
		reads = "only:" + strings.TrimRight(modeFlags[mode], " ")
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != mode && !strings.Contains(modeFlags[mode], " "+f.Name+" ") {
			fmt.Fprintf(os.Stderr, "pperf: -%s cannot be combined with -%s (it reads %s)\n", f.Name, mode, reads)
			os.Exit(2)
		}
		if v, ok := f.Value.(flag.Getter).Get().(float64); ok && v < 0 { // the -what-if-* thresholds
			fmt.Fprintf(os.Stderr, "pperf: -%s %v: a threshold must be positive\n", f.Name, v)
			os.Exit(2)
		}
		if v, ok := f.Value.(flag.Getter).Get().(int); ok && v < 0 { // -np, -iterations, -ttw
			fmt.Fprintf(os.Stderr, "pperf: -%s %d: a size must not be negative\n", f.Name, v)
			os.Exit(2)
		}
	})

	// Validated before any branch: -replay returns early, and a bad value
	// must not silently fall back to the default there.
	if *traceFmt != "perfetto" && *traceFmt != "csv" {
		fmt.Fprintf(os.Stderr, "pperf: unknown -trace-format %q (perfetto | csv)\n", *traceFmt)
		os.Exit(2)
	}
	var method daemon.SpawnMethod
	switch *spawnVia {
	case "intercept":
		method = daemon.SpawnIntercept
	case "attach":
		method = daemon.SpawnAttach
	default:
		fmt.Fprintf(os.Stderr, "pperf: unknown -spawn %q (intercept | attach)\n", *spawnVia)
		os.Exit(2)
	}

	if mode == "pcl" {
		if err := runFromPCL(*pclFile); err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		return
	}

	if mode == "list" {
		fmt.Println("MPI-1 programs (Table 2):")
		for _, n := range pperfmark.MPI1Names() {
			fmt.Printf("  %-18s %s\n", n, pperfmark.Get(n).Description)
		}
		fmt.Println("MPI-2 programs (Table 3):")
		for _, n := range pperfmark.MPI2Names() {
			fmt.Printf("  %-18s %s\n", n, pperfmark.Get(n).Description)
		}
		return
	}

	if mode == "replay" {
		whatIf := pperfmark.ReplayOptions{SyncThreshold: *wifSync, IOThreshold: *wifIO, CPUThreshold: *wifCPU}
		a, err := perfdb.LoadAny(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		if note := a.TruncationNote(); note != "" {
			fmt.Fprintln(os.Stderr, "pperf:", note)
		}
		res, err := pperfmark.ReplayWith(a, whatIf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		printResult(res, *hier, *judge, *critPath, *traceOut, *traceFmt)
		return
	}

	impl, err := mpi.ParseImpl(*implName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pperf:", err)
		os.Exit(2)
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		plan, err = faults.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(2)
		}
	}
	var tcfg *trace.Config
	if *traceOut != "" || *critPath {
		tcfg = &trace.Config{}
	}

	opt := pperfmark.RunOptions{
		Impl:  impl,
		Seed:  *seed,
		Spawn: method,
		Params: pperfmark.Params{
			Iterations:  *iters,
			Procs:       *procs,
			TimeToWaste: *waste,
		},
		Faults: plan,
		Trace:  tcfg,
	}
	if *record != "" && *dbDir != "" {
		fmt.Fprintln(os.Stderr, "pperf: -record and -db are mutually exclusive (the store holds the recording)")
		os.Exit(2)
	}
	if *dbLabel != "" && *dbDir == "" {
		fmt.Fprintln(os.Stderr, "pperf: -db-label requires -db (it labels the stored run)")
		os.Exit(2)
	}
	// Recording streams through the chunked writer in both cases: events
	// land on disk as the run produces them instead of accumulating in
	// memory until exit.
	var (
		rec   *perfdb.StreamRecorder
		store *perfdb.Store
	)
	if *record != "" {
		var err error
		if rec, err = perfdb.NewStreamRecorder(*record); err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		opt.Record = rec
	}
	if *dbDir != "" {
		var err error
		if store, err = perfdb.Open(*dbDir); err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		if rec, err = store.NewRecorder(); err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		opt.Record = rec
	}
	res, err := pperfmark.Run(*prog, opt)
	if err != nil {
		if store != nil && rec != nil {
			store.Discard(rec) // abort the recording and release its reservation
		} else if rec != nil {
			rec.Abort()
		}
		fmt.Fprintln(os.Stderr, "pperf:", err)
		os.Exit(1)
	}
	switch {
	case store != nil:
		verdict := ""
		if res.PC != nil {
			verdict = res.PC.Export().String()
		}
		m, warning, err := store.Commit(rec, perfdb.AddMeta{Label: *dbLabel, Verdict: verdict})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		if warning != "" {
			fmt.Fprintln(os.Stderr, "pperf: warning:", warning)
		}
		fmt.Fprintf(os.Stderr, "pperf: run stored as %s in %s (%d events, %d bytes)\n",
			m.ID, store.Dir(), m.Events, m.Bytes)
	case rec != nil:
		if err := rec.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pperf: session recorded to %s (%d events)\n", *record, rec.EventCount())
	}
	printResult(res, *hier, *judge, *critPath, *traceOut, *traceFmt)
	if *wireStats {
		printWireStats(res)
	}
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

// printResult renders a run's findings. It reads everything through the
// Result's DataSource, so a live run and a replayed archive print through
// the identical path — the replay acceptance bar is byte-equal output.
func printResult(res *pperfmark.Result, hier, judge, critPath bool, traceOut, traceFmt string) {
	if res.Unsupported != nil {
		fmt.Printf("%s under %s: %v\n", res.Program, res.Impl, res.Unsupported)
		return
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
	fmt.Println("Performance Consultant (condensed):")
	fmt.Print(res.PC.Render())

	if hier {
		fmt.Println("\nResource hierarchy:")
		fmt.Print(res.Source.Hierarchy().Render())
	}
	if traceOut != "" || critPath {
		if res.Timeline == nil {
			fmt.Fprintln(os.Stderr, "pperf: no trace in this session (replayed archive was recorded without -trace/-critical-path)")
			os.Exit(1)
		}
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, traceFmt, res.Timeline, res.Source.CounterTracks()); err != nil {
			fmt.Fprintln(os.Stderr, "pperf:", err)
			os.Exit(1)
		}
		st := res.Timeline.Stats()
		fmt.Printf("\nTrace written to %s (%s format, %d shards; spans lost: %d ring-evicted, %d outbox-evicted, %d undelivered)\n",
			traceOut, traceFmt, st.Shards, st.Dropped, st.OutboxLost, st.Undelivered)
	}
	if critPath {
		cp := trace.Analyze(res.Timeline)
		fmt.Println()
		fmt.Print(cp.Render())
	}
	if judge {
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
		opts, err := core.OptionsFromPCL(cfg, pr.Daemon, core.Options{Nodes: 4, CPUsPerNode: 2})
		if err != nil {
			return err
		}
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

// modeFlags lists, per mode flag, the other flags that mode reads (space
// delimited). -pcl takes its whole run from the file and -list only prints;
// -replay re-analyzes a recording, so everything that shapes a live run
// (-seed, -impl, -np, -faults, -db, ...) has no meaning there, and the
// -what-if-* thresholds have none on a live run.
var modeFlags = map[string]string{
	"pcl":    "",
	"list":   "",
	"replay": " hierarchy judge trace trace-format critical-path what-if-sync what-if-io what-if-cpu ",
	"prog": " impl iterations np ttw spawn seed faults hierarchy judge trace trace-format critical-path" +
		" record db db-label transport-stats ",
}

// writeTrace exports the merged timeline in the requested format. The
// Perfetto export also carries the front end's folding histograms as
// counter tracks next to the span tracks.
func writeTrace(path, format string, tl *trace.Timeline, counters []trace.CounterTrack) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
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
