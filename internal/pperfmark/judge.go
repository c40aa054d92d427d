package pperfmark

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"

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
	// Seed is recorded with the run (the archive header's run record, which
	// the store index reads too); nothing draws from it (core.Options.Seed).
	Seed uint64
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

// Spec is one run of a suite program, as NewSpec resolves RunOptions: what Run
// runs, what its recording records and what Replay decodes. String names it.
type Spec struct {
	Program           string
	Impl              mpi.ImplKind
	Params            Params // merged over the program's defaults
	Seed              uint64
	Spawn             daemon.SpawnMethod
	PCConfig          consultant.Config // ScaledPCConfig with the program's own CPU threshold, if any
	Faults            *faults.Plan
	DisablePC, Traced bool
}

// NewSpec resolves opt for the named program, or refuses it (see check).
func NewSpec(name string, opt RunOptions) (Spec, error) {
	s := Spec{Program: name, Impl: opt.Impl, Params: opt.Params, Seed: opt.Seed, Spawn: opt.Spawn,
		DisablePC: opt.DisablePC, PCConfig: ScaledPCConfig(), Traced: opt.Trace != nil, Faults: opt.Faults}
	if err := s.check(true); err != nil {
		return Spec{}, fmt.Errorf("pperfmark: %w", err)
	}
	s.PCConfig.CPUThreshold = cmp.Or(registry[name].CPUThreshold, s.PCConfig.CPUThreshold)
	return s, nil
}

// check refuses a spec no run has: an unknown program, a negative parameter
// or prune count, an evaluation interval that is not positive or a threshold
// outside (0, 1]. With merge, a zero parameter takes the program's default.
func (s *Spec) check(merge bool) error {
	e := registry[s.Program]
	if e == nil {
		return fmt.Errorf("unknown program %q (known: %v)", s.Program, Names())
	}
	v, d, pc := reflect.ValueOf(&s.Params).Elem(), reflect.ValueOf(&e.Defaults).Elem(), &s.PCConfig
	for i := range v.NumField() { // every Params field is an integer
		switch f := v.Field(i); {
		case f.Int() < 0:
			return fmt.Errorf("%s %s %d: must not be negative", s.Program, v.Type().Field(i).Name, f.Int())
		case f.Int() == 0 && merge:
			f.SetInt(d.Field(i).Int())
		}
	}
	if pc.PruneEvals < 0 || pc.EvalInterval <= 0 {
		return fmt.Errorf("Consultant prune count %d, evaluation interval %v", pc.PruneEvals, pc.EvalInterval)
	}
	th := [...]float64{pc.SyncThreshold, pc.IOThreshold, pc.CPUThreshold}
	if err := cmp.Or(core.CheckThreshold(th[0]), core.CheckThreshold(th[1]), core.CheckThreshold(th[2])); err != nil {
		return fmt.Errorf("Consultant thresholds %v: %w", th, err)
	}
	return nil
}

// Result is a completed tool-observed run of one suite program.
type Result struct {
	Spec
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
	// Timeline is the merged trace timeline (nil unless Traced).
	Timeline *trace.Timeline
	// Unsupported is set when the implementation cannot run the program at
	// all (spawn on MPICH/MPICH2), mirroring the paper's restrictions.
	Unsupported error
}

// totals lists, in a fixed order, the whole-program counts of a run of entry:
// res's series, the expected value (nil: none), the metric and its name.
func totals(entry *Entry, res *Result) [5]total {
	return [5]total{
		{&res.BytesSent, entry.ExpectedBytesSent, "msg_bytes_sent", "message bytes sent"},
		{&res.PutOps, entry.ExpectedPutOps, "rma_put_ops", "Put ops"},
		{&res.GetOps, entry.ExpectedGetOps, "rma_get_ops", "Get ops"},
		{&res.AccOps, entry.ExpectedAccOps, "rma_acc_ops", "Accumulate ops"},
		{&res.RMABytes, entry.ExpectedRMABytes, "rma_bytes", "RMA bytes"},
	}
}

type total struct {
	series       **datasource.Series
	expect       func(Params) float64
	metric, what string
}

// enableVerification turns on the series of each of res's program's totals.
// Run calls it on the live front end and ReplayWith on the replay source,
// which answers each request from the recorded enables; sharing it keeps the
// two request orders identical.
func enableVerification(src datasource.DataSource, res *Result) error {
	for _, t := range totals(registry[res.Program], res) {
		if t.expect == nil {
			continue
		}
		sr, err := src.EnableMetric(t.metric, resource.WholeProgram())
		if err != nil {
			return err
		}
		*t.series = sr
	}
	return nil
}

// layout is the cluster suite program name runs on with params p (as Program
// returns them): the paper's layouts put at most two ranks on a node, one
// for 2 procs, and give a spawn program a node for its parent and each child.
func layout(name string, p Params) (nodes, cpusPerNode int) {
	nodes = max(2, (p.Procs+1)/2)
	if e := registry[name]; e != nil && e.Defaults.Children > 0 {
		nodes = p.Children + 1
	}
	if p.Procs <= nodes {
		return nodes, 1 // one rank per node
	}
	return nodes, 2
}

// SessionOptions is the one description of a suite program's session: the
// program's layout, the scaled-down suite's 50 ms sampling and 50 ms bins,
// and opt's spec, trace and recorder; it returns the program and the spec
// too. A caller that drives the session sets what else it needs (UseTCP).
func SessionOptions(name string, opt RunOptions) (core.Options, mpi.Program, Spec, error) {
	s, err := NewSpec(name, opt)
	if err != nil {
		return core.Options{}, nil, Spec{}, err
	}
	nodes, cpus := layout(name, s.Params)
	dcfg := daemon.DefaultConfig()
	dcfg.SampleInterval, dcfg.Spawn = 50*sim.Millisecond, s.Spawn
	return core.Options{Impl: s.Impl, Nodes: nodes, CPUsPerNode: cpus, Seed: s.Seed, Daemon: &dcfg, BinWidth: 50 * sim.Millisecond,
		Faults: s.Faults, Trace: opt.Trace, Recorder: opt.Record}, registry[name].Make(s.Params), s, nil
}

// Run executes one suite program under the full tool (daemons, front end,
// Performance Consultant) and returns the observed results.
func Run(name string, opt RunOptions) (*Result, error) {
	o, prog, spec, err := SessionOptions(name, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec}
	stampRecording(opt.Record, res, false)
	s, err := core.NewSession(o)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	res.Session, res.Source = s, s.FE
	if res.Unsupported = registry[name].Unsupported(s.World.Impl); res.Unsupported == nil {
		s.Register(name, prog)
		if err := enableVerification(s.FE, res); err != nil {
			return nil, err
		}
		if err := s.Launch(name, spec.Params.Procs, nil); err != nil {
			return nil, err
		}
		if !spec.DisablePC {
			res.PC = consultant.New(s.FE, s.Eng, spec.PCConfig)
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
	}
	stampRecording(opt.Record, res, true)
	return res, nil
}

// Unsupported is the error for a program the personality impl cannot run at
// all, or nil. The spawn-based programs need dynamic process creation, as
// §5.2.2 notes (the paper uses only LAM for them); passive-target programs
// were unimplementable in 2004 and run only under the Reference personality
// (§5.2.1.1).
func (e *Entry) Unsupported(impl *mpi.Impl) error {
	switch {
	case e.Defaults.Children > 0 && !impl.SupportsSpawn:
		return &mpi.ErrUnsupported{Impl: impl.Kind, Feature: "dynamic process creation"}
	case e.NeedsPassive && !impl.SupportsPassiveTarget:
		return &mpi.ErrUnsupported{Impl: impl.Kind, Feature: "passive target synchronization"}
	}
	return nil
}

// Verdict is the judged outcome of one run — a row of Table 2 or 3.
type Verdict struct {
	Spec // the judged run
	// Pass means the tool behaved as the paper reports for this program
	// (including a designed failure, whose "correct" behaviour is failing to
	// find the bottleneck).
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

// Judge evaluates a Result against the paper's expectations for the
// program: its entry's totals, findings and hierarchy check, in that order.
func Judge(res *Result) *Verdict {
	v := &Verdict{Spec: res.Spec, PaperResult: "Pass"}
	if res.Unsupported != nil {
		v.Skipped = res.Unsupported.Error()
		v.Pass = true
		return v
	}
	e := Get(res.Program)
	v.PaperResult = cmp.Or(e.PaperResult, v.PaperResult)
	for _, t := range totals(e, res) {
		if *t.series == nil || t.expect == nil {
			continue
		}
		if want, got := t.expect(res.Params), (*t.series).Total(); math.Abs(got-want) < 0.5 {
			v.Details = append(v.Details, fmt.Sprintf("counted %s = %.0f (expected %.0f)", t.what, got, want))
		} else {
			v.Problems = append(v.Problems, fmt.Sprintf("%s = %.0f, expected %.0f", t.what, got, want))
		}
	}
	if res.PC == nil && len(e.Expect) > 0 {
		v.Problems = append(v.Problems, "no Performance Consultant ran, so no expected finding was tested")
	}
	// A true node's hypothesis is its root's and truth latches, so a true
	// descendant implies a true root: an empty focus tests the top level.
	for i := range e.Expect {
		x := &e.Expect[i]
		if res.PC == nil || x.Impls != nil && !slices.Contains(x.Impls, res.Impl) {
			continue
		}
		found := len(x.Focus) == 0 && res.PC.HasFinding(x.Hyp, "")
		for _, f := range x.Focus {
			found = found || res.PC.HasFinding(x.Hyp, f)
		}
		v.want(found != x.Absent, x.Detail, x.Problem)
	}
	if e.Check != nil {
		e.Check(res, v)
	}
	v.Pass = len(v.Problems) == 0
	return v
}

// want records one judged expectation: its detail when ok, else its problem.
func (v *Verdict) want(ok bool, detail, problem string) {
	if ok {
		v.Details = append(v.Details, detail)
	} else {
		v.Problems = append(v.Problems, problem)
	}
}
