package pperfmark

import (
	"fmt"
	"math"
	"strings"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// RunOptions configure a judged suite run.
type RunOptions struct {
	Impl   mpi.ImplKind
	Params Params
	Seed   uint64
	// Spawn selects the tool's dynamic-process-creation method.
	Spawn daemon.SpawnMethod
	// DisablePC runs without the Performance Consultant (for histogram
	// experiments that only need metric series).
	DisablePC bool
	// Faults arms a fault-injection plan on the session (nil = healthy run,
	// byte-identical to a build without fault support).
	Faults *faults.Plan
	// Trace arms the event-tracing subsystem (nil = no tracing, runs are
	// byte-identical to a build without trace support).
	Trace *trace.Config
	// Record, when non-nil, captures the run's analysis-plane event stream
	// into a session archive replayable with Replay (nil = no recording,
	// runs are byte-identical to a build without session support). Run
	// finalizes the recorder's header; the caller closes it
	// (perfdb.StreamRecorder.Close).
	// Assign only non-nil concrete recorders (a typed-nil pointer in the
	// interface would defeat the nil checks).
	Record session.Sink
}

// ScaledPCConfig is the Performance Consultant configuration used for the
// scaled-down suite runs: everything shrinks together (sampling 0.2 s→50 ms,
// evaluation 1 s→250 ms), preserving the ratios of the paper's setup.
func ScaledPCConfig() consultant.Config {
	cfg := consultant.DefaultConfig()
	cfg.EvalInterval = 250 * sim.Millisecond
	cfg.PruneEvals = 10
	return cfg
}

// Result is a completed tool-observed run of one suite program.
type Result struct {
	Program string
	Impl    mpi.ImplKind
	Params  Params
	Session *core.Session
	// Source is the analysis plane the run's findings were (or, for a
	// replayed archive, are) read from: the live front end or a
	// ReplaySource. Judge and the CLI query through it so they work
	// identically on live and replayed results.
	Source datasource.DataSource
	PC     *consultant.Consultant
	// Verification series enabled for the program's expected totals.
	BytesSent *datasource.Series
	PutOps    *datasource.Series
	GetOps    *datasource.Series
	AccOps    *datasource.Series
	RMABytes  *datasource.Series
	// RunTime is the program's virtual wall-clock duration.
	RunTime sim.Time
	// ProbeExecs totals probe executions across daemons (carried on the
	// Result so replayed runs can report it without a live Session).
	ProbeExecs int64
	// Coverage is the fraction of processes still reporting at the end of
	// the run (1.0 for a healthy run; < 1.0 after injected failures).
	Coverage float64
	// FaultLog lists the injected events that fired (empty without a plan).
	FaultLog []string
	// Timeline is the merged trace timeline (nil unless RunOptions.Trace).
	Timeline *trace.Timeline
	// Unsupported is set when the implementation cannot run the program at
	// all (spawn on MPICH/MPICH2), mirroring the paper's restrictions.
	Unsupported error
}

// enableVerification turns on, in a fixed order, the whole-program series
// a run is judged by — one per total the program's entry knows the expected
// value of. Run calls it on the live front
// end and ReplayWith on the replay source, which answers each request from
// the recorded enables; sharing it keeps the two request orders identical.
func enableVerification(src datasource.DataSource, entry *Entry, res *Result) error {
	whole := resource.WholeProgram()
	for _, e := range []struct {
		dst    **datasource.Series
		expect func(Params) float64
		metric string
	}{
		{&res.BytesSent, entry.ExpectedBytesSent, "msg_bytes_sent"},
		{&res.PutOps, entry.ExpectedPutOps, "rma_put_ops"},
		{&res.GetOps, entry.ExpectedGetOps, "rma_get_ops"},
		{&res.AccOps, entry.ExpectedAccOps, "rma_acc_ops"},
		{&res.RMABytes, entry.ExpectedRMABytes, "rma_bytes"},
	} {
		if e.expect == nil {
			continue
		}
		sr, err := src.EnableMetric(e.metric, whole)
		if err != nil {
			return err
		}
		*e.dst = sr
	}
	return nil
}

// Layout is the cluster suite program name runs on with params p (as Program
// returns them): the paper's layouts put at most two ranks on a node, one
// for 2 procs, and give a spawn program a node for its parent and each child.
func Layout(name string, p Params) (nodes, cpusPerNode int) {
	nodes = max(2, (p.Procs+1)/2)
	if strings.HasPrefix(name, "spawn") {
		nodes = p.Children + 1
	}
	if p.Procs <= nodes {
		return nodes, 1 // one rank per node
	}
	return nodes, 2
}

// Run executes one suite program under the full tool (daemons, front end,
// Performance Consultant) and returns the observed results.
func Run(name string, opt RunOptions) (*Result, error) {
	entry := Get(name)
	if entry == nil {
		return nil, fmt.Errorf("pperfmark: unknown program %q", name)
	}
	prog, params, err := Program(name, opt.Params)
	if err != nil {
		return nil, err
	}
	nodes, cpus := Layout(name, params)

	dcfg := daemon.DefaultConfig()
	dcfg.SampleInterval = 50 * sim.Millisecond
	dcfg.Spawn = opt.Spawn
	// The effective Consultant configuration, hoisted so recording can
	// archive it even though the Consultant itself starts after launch.
	pcCfg := ScaledPCConfig()
	if name == "diffuse-procedure" {
		// §5.1.6: the 25%-per-process bottleneck needs the CPU
		// threshold lowered to 0.2 before the Consultant reports it.
		pcCfg.CPUThreshold = 0.2
	}

	res := &Result{Program: name, Impl: opt.Impl, Params: params}
	stampRecording(opt, res, pcCfg, nodes, false)
	s, err := core.NewSession(core.Options{
		Impl:        opt.Impl,
		Nodes:       nodes,
		CPUsPerNode: cpus,
		Seed:        opt.Seed,
		Daemon:      &dcfg,
		BinWidth:    50 * sim.Millisecond,
		Faults:      opt.Faults,
		Trace:       opt.Trace,
		Recorder:    opt.Record,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	res.Session, res.Source = s, s.FE

	// The spawn-based programs need an implementation with dynamic process
	// creation, as §5.2.2 notes (the paper uses only LAM for them).
	if strings.HasPrefix(name, "spawn") && !s.World.Impl.SupportsSpawn {
		res.Unsupported = &mpi.ErrUnsupported{Impl: opt.Impl, Feature: "dynamic process creation"}
		stampRecording(opt, res, pcCfg, nodes, true)
		return res, nil
	}
	// Passive-target programs were unimplementable in 2004; they run only
	// under the Reference personality (§5.2.1.1).
	if entry.NeedsPassive && !s.World.Impl.SupportsPassiveTarget {
		res.Unsupported = &mpi.ErrUnsupported{Impl: opt.Impl, Feature: "passive target synchronization"}
		stampRecording(opt, res, pcCfg, nodes, true)
		return res, nil
	}

	s.Register(name, prog)

	if err := enableVerification(s.FE, entry, res); err != nil {
		return nil, err
	}

	if err := s.Launch(name, params.Procs, nil); err != nil {
		return nil, err
	}
	if !opt.DisablePC {
		res.PC = consultant.New(s.FE, s.Eng, pcCfg)
		if err := res.PC.Start(); err != nil {
			return nil, err
		}
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	res.RunTime = s.Eng.Now()
	res.ProbeExecs = s.ProbeExecutions()
	res.Coverage = s.FE.Coverage()
	if s.Injector != nil {
		res.FaultLog = s.Injector.Log()
	}
	res.Timeline = s.FE.Timeline()
	stampRecording(opt, res, pcCfg, nodes, true)
	return res, nil
}

// Verdict is the judged outcome of one run — a row of Table 2 or 3.
type Verdict struct {
	Program string
	Impl    mpi.ImplKind
	// Pass means the tool behaved as the paper reports for this program
	// (including system-time, whose "correct" behaviour is failing to find
	// the bottleneck).
	Pass bool
	// PaperResult is the pass/fail the paper's Table records.
	PaperResult string
	// Details summarizes what was (or was not) found.
	Details []string
	// Problems lists expectation mismatches (empty when Pass).
	Problems []string
	// Skipped is non-empty when the implementation cannot run the program.
	Skipped string
}

// Judge evaluates a Result against the paper's expectations for the program.
func Judge(res *Result) *Verdict {
	v := &Verdict{Program: res.Program, Impl: res.Impl, PaperResult: "Pass"}
	if res.Unsupported != nil {
		v.Skipped = res.Unsupported.Error()
		v.Pass = true
		return v
	}
	pc := res.PC
	want := func(ok bool, detail, problem string) {
		if ok {
			v.Details = append(v.Details, detail)
		} else {
			v.Problems = append(v.Problems, problem)
		}
	}
	findSync := func(substr string) bool { return pc.HasFinding(consultant.HypSync, substr) }
	findCPU := func(substr string) bool { return pc.HasFinding(consultant.HypCPU, substr) }
	checkTotal := func(series *datasource.Series, expect func(Params) float64, what string) {
		if series == nil || expect == nil {
			return
		}
		wantV, got := expect(res.Params), series.Total()
		want(math.Abs(got-wantV) < 0.5,
			fmt.Sprintf("counted %s = %.0f (expected %.0f)", what, got, wantV),
			fmt.Sprintf("%s = %.0f, expected %.0f", what, got, wantV))
	}
	e := Get(res.Program)
	checkTotal(res.BytesSent, e.ExpectedBytesSent, "message bytes sent")
	checkTotal(res.PutOps, e.ExpectedPutOps, "Put ops")
	checkTotal(res.GetOps, e.ExpectedGetOps, "Get ops")
	checkTotal(res.AccOps, e.ExpectedAccOps, "Accumulate ops")
	checkTotal(res.RMABytes, e.ExpectedRMABytes, "RMA bytes")

	switch res.Program {
	case "small-messages":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("Gsend_message"), "drilled into Gsend_message", "Gsend_message not found")
		want(findSync("MPI_Send"), "found MPI_Send", "MPI_Send not found")
		want(findSync("/SyncObject/Message/comm-"), "identified the communicator", "communicator not identified")
		if res.Impl == mpi.MPICH {
			want(pc.TopLevelTrue(consultant.HypIO), "ExcessiveIOBlockingTime true (socket transport)", "IO hypothesis false under MPICH")
		}
	case "big-message":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("Gsend_message") || findSync("Grecv_message"),
			"drilled into Gsend_message/Grecv_message", "send/recv wrappers not found")
		want(findSync("MPI_Send") || findSync("MPI_Recv"), "found MPI_Send/MPI_Recv", "MPI p2p functions not found")
	case "wrong-way":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("Gsend_message") || findSync("Grecv_message"),
			"send_message/recv_message are the bottlenecks", "wrappers not found")
		want(findSync("MPI_Send") || findSync("MPI_Recv"), "found MPI_Send/MPI_Recv", "p2p functions not found")
	case "intensive-server":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("Grecv_message"), "drilled through Grecv_message", "Grecv_message not found")
		want(findSync("MPI_Recv"), "found MPI_Recv", "MPI_Recv not found")
		want(pc.TopLevelTrue(consultant.HypCPU), "CPUBound true", "CPU hypothesis false")
	case "random-barrier":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("MPI_Barrier"), "found MPI_Barrier", "MPI_Barrier not found")
		want(pc.TopLevelTrue(consultant.HypCPU), "CPUBound true", "CPU hypothesis false")
		want(findCPU("waste_time"), "pinpointed waste_time", "waste_time not found")
		if res.Impl == mpi.MPICH {
			want(findSync("MPI_Sendrecv"), "exposed PMPI_Sendrecv inside the barrier", "barrier internals not exposed")
		}
	case "diffuse-procedure":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("MPI_Barrier"), "found MPI_Barrier", "MPI_Barrier not found")
		want(findCPU("bottleneckProcedure"), "found bottleneckProcedure with CPU threshold 0.2", "bottleneckProcedure not found")
	case "system-time":
		v.PaperResult = "Fail"
		want(!pc.AnyTrue(), "all hypotheses tested false (no system-time metrics)", "a hypothesis unexpectedly tested true")
	case "hot-procedure":
		want(pc.TopLevelTrue(consultant.HypCPU), "CPUBound true", "CPU hypothesis false")
		want(findCPU("bottleneckProcedure"), "CPU bound in bottleneckProcedure", "bottleneckProcedure not found")
		want(!findCPU("irrelevantProcedure"), "irrelevant procedures not implicated", "an irrelevantProcedure was implicated")
	case "sstwod":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("exchng2"), "drilled into exchng2", "exchng2 not found")
		want(findSync("MPI_Sendrecv"), "found MPI_Sendrecv", "MPI_Sendrecv not found")
		want(findSync("MPI_Allreduce"), "found MPI_Allreduce", "MPI_Allreduce not found")
	case "allcount":
		// The totals checks above are the test.
		want(res.Source.Hierarchy().FindPath("/SyncObject/Window/0-1") != nil,
			"window incorporated into the resource hierarchy", "window resource missing")
	case "wincreate-blast":
		judgeWincreateBlast(res, v)
	case "winfence-sync":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("MPI_Win_fence"), "ranks wait in MPI_Win_fence", "MPI_Win_fence not found")
		want(findSync("/SyncObject/Window/"), "identified the RMA window", "window not identified")
		want(findCPU("waste_time"), "rank 0 CPU bound in waste_time", "waste_time not found")
	case "winscpw-sync":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		if res.Impl == mpi.LAM {
			want(findSync("MPI_Win_start"), "origins block in MPI_Win_start (LAM)", "MPI_Win_start not found")
		} else {
			want(findSync("MPI_Win_complete"), "origins block in MPI_Win_complete (MPICH2)", "MPI_Win_complete not found")
		}
		want(findSync("/SyncObject/Window/"), "identified the RMA window", "window not identified")
		want(findCPU("waste_time"), "rank 0 CPU bound in waste_time", "waste_time not found")
	case "spawncount":
		judgeSpawncount(res, v)
	case "spawnsync":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("childfunction"), "children wait inside childfunction", "childfunction not found")
		want(findSync("MPI_Recv"), "children wait in MPI_Recv", "MPI_Recv not found")
		want(findCPU("parentfunction"), "parent CPU bound in parentfunction", "parentfunction not found")
	case "spawnwin-sync":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("MPI_Win_fence"), "children wait in MPI_Win_fence", "MPI_Win_fence not found")
		want(findCPU("parentfunction"), "parent CPU bound in parentfunction", "parentfunction not found")
		if res.Impl == mpi.LAM {
			want(findSync("/SyncObject/Message") || findSync("MPI_Isend") || findSync("MPI_Waitall"),
				"message-passing sync from LAM's Isend/Waitall fence", "LAM fence message traffic not found")
		}
		named := false
		res.Source.Hierarchy().Root().Walk(func(n *resource.Node) {
			if n.DisplayName() == "ParentChildWindow" {
				named = true
			}
		})
		want(named, "friendly window name displayed", "window name missing")
	case "winlock-sync":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("MPI_Win_lock") || findSync("MPI_Win_unlock"),
			"origins contend in MPI_Win_lock/MPI_Win_unlock", "passive-target waiting not found")
		want(findSync("/SyncObject/Window/"), "identified the RMA window", "window not identified")
	case "fileio-bound":
		want(pc.TopLevelTrue(consultant.HypIO), "ExcessiveIOBlockingTime true", "IO hypothesis false")
		want(pc.HasFinding(consultant.HypIO, "MPI_File_write_at") ||
			pc.HasFinding(consultant.HypIO, "checkpoint"),
			"drilled into the MPI-I/O writes", "I/O code not found")
	case "oned":
		want(pc.TopLevelTrue(consultant.HypSync), "ExcessiveSyncWaitingTime true", "sync hypothesis false")
		want(findSync("exchng1"), "drilled into exchng1", "exchng1 not found")
		want(findSync("MPI_Win_fence"), "found MPI_Win_fence", "MPI_Win_fence not found")
		if res.Impl == mpi.LAM {
			want(findSync("/SyncObject/Barrier"), "LAM: Barrier sync object implicated (fence is a barrier)", "Barrier not implicated under LAM")
		}
	}
	v.Pass = len(v.Problems) == 0
	return v
}

func judgeWincreateBlast(res *Result, v *Verdict) {
	h := res.Source.Hierarchy()
	winRoot := h.Find(resource.SyncObject, resource.Window)
	total, retired := 0, 0
	seen := map[string]bool{}
	dups := false
	for _, w := range winRoot.Children() {
		total++
		if w.Retired() {
			retired++
		}
		if seen[w.Name()] {
			dups = true
		}
		seen[w.Name()] = true
	}
	wantWindows := res.Params.Windows
	if total == wantWindows && !dups {
		v.Details = append(v.Details, fmt.Sprintf("all %d windows detected with unique N-M ids", total))
	} else {
		v.Problems = append(v.Problems, fmt.Sprintf("windows detected = %d (dups=%v), want %d", total, dups, wantWindows))
	}
	if retired == wantWindows {
		v.Details = append(v.Details, "all windows retired after MPI_Win_free")
	} else {
		v.Problems = append(v.Problems, fmt.Sprintf("retired = %d, want %d", retired, wantWindows))
	}
}

func judgeSpawncount(res *Result, v *Verdict) {
	count := 0
	res.Source.Hierarchy().Find(resource.Machine).Walk(func(n *resource.Node) {
		if strings.Contains(n.Name(), "spawncount-child{") {
			count++
		}
	})
	if count == res.Params.Children {
		v.Details = append(v.Details, fmt.Sprintf("all %d spawned processes incorporated", count))
	} else {
		v.Problems = append(v.Problems, fmt.Sprintf("spawned processes detected = %d, want %d", count, res.Params.Children))
	}
}
