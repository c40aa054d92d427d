// Package pperf is the public facade of the reproduction of "Performance
// Tool Support for MPI-2 on Linux" (Mohror & Karavanic, 2004): a
// dynamic-instrumentation performance tool (in the mould of Paradyn 4.0,
// extended with the paper's MPI-2 support) running over a deterministic
// simulated Linux cluster with LAM/MPI, MPICH and MPICH2 implementation
// personalities.
//
// The typical flow is:
//
//	s, _ := pperf.NewSession(pperf.Options{Impl: pperf.LAM})
//	s.Register("app", func(r *pperf.Rank, _ []string) { ... })
//	s.Launch("app", 4, nil)
//	pc := pperf.NewConsultant(s, pperf.DefaultConsultantConfig())
//	pc.Start()
//	s.Run()
//	fmt.Print(pc.Render())
//
// Deeper layers are exposed as aliases so library users get full
// functionality without importing internal packages.
package pperf

import (
	"pperf/internal/cluster"
	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/gprofsim"
	"pperf/internal/mdl"
	"pperf/internal/metric"
	"pperf/internal/mpe"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/presta"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/stats"
)

// Core tool types.
type (
	// Session is a live tool instance: simulated cluster, MPI world,
	// daemons, front end.
	Session = core.Session
	// Options configure a Session.
	Options = core.Options
	// Consultant is the Performance Consultant bottleneck search.
	Consultant = consultant.Consultant
	// ConsultantConfig tunes its thresholds and pacing.
	ConsultantConfig = consultant.Config
	// DaemonConfig tunes the per-node daemons.
	DaemonConfig = daemon.Config
	// Series is one collected metric-focus data stream.
	Series = datasource.Series
	// Focus selects what part of the program a metric measures.
	Focus = resource.Focus
	// Histogram is the fixed-memory folding histogram.
	Histogram = metric.Histogram
)

// Simulated MPI types.
type (
	// Rank is a simulated MPI process handle (passed to Programs).
	Rank = mpi.Rank
	// Comm is a communicator.
	Comm = mpi.Comm
	// Win is an RMA window handle.
	Win = mpi.Win
	// Program is an MPI application body.
	Program = mpi.Program
	// Datatype is an MPI basic datatype.
	Datatype = mpi.Datatype
	// Info carries MPI-2 Info hints.
	Info = mpi.Info
)

// Implementation personalities.
const (
	LAM       = mpi.LAM
	MPICH     = mpi.MPICH
	MPICH2    = mpi.MPICH2
	Reference = mpi.Reference
)

// Datatypes and wildcards.
const (
	Byte      = mpi.Byte
	Char      = mpi.Char
	Int       = mpi.Int
	Float     = mpi.Float
	Double    = mpi.Double
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Hypothesis names for Consultant queries.
const (
	HypSync = consultant.HypSync
	HypIO   = consultant.HypIO
	HypCPU  = consultant.HypCPU
)

// Virtual time.
type (
	Time = sim.Time
	// Duration is virtual time; it equals time.Duration.
	Duration = sim.Duration
)

// NewSession builds a tool session (cluster, world, daemons, front end).
func NewSession(opts Options) (*Session, error) { return core.NewSession(opts) }

// NewConsultant attaches a Performance Consultant to a session.
func NewConsultant(s *Session, cfg ConsultantConfig) *Consultant {
	return consultant.New(s.FE, s.Eng, cfg)
}

// DefaultConsultantConfig returns the paper-faithful thresholds (sync 0.2,
// I/O 0.15, CPU 0.3).
func DefaultConsultantConfig() ConsultantConfig { return consultant.DefaultConfig() }

// WholeProgram is the unrestricted focus.
func WholeProgram() Focus { return resource.WholeProgram() }

// CompileMDL compiles user Metric Description Language source merged over
// the standard library.
func CompileMDL(src string) (*mdl.Library, error) { return mdl.NewLibraryWithStd(src) }

// Suite re-exports PPerfMark.
type (
	SuiteParams  = pperfmark.Params
	SuiteOptions = pperfmark.RunOptions
	SuiteResult  = pperfmark.Result
	SuiteVerdict = pperfmark.Verdict
)

// SuitePrograms lists the PPerfMark programs.
func SuitePrograms() []string { return pperfmark.Names() }

// RunSuiteProgram runs one PPerfMark program under the full tool.
func RunSuiteProgram(name string, opt SuiteOptions) (*SuiteResult, error) {
	return pperfmark.Run(name, opt)
}

// JudgeSuiteRun evaluates a suite run against the paper's expectations.
func JudgeSuiteRun(res *SuiteResult) *SuiteVerdict { return pperfmark.Judge(res) }

// Session recording and offline replay (see REPLAY.md).
type (
	// SessionArchive is a loaded session recording.
	SessionArchive = session.Archive
	// ReplaySource serves a recorded session through the DataSource
	// interface the Consultant consumes.
	ReplaySource = session.ReplaySource
)

// ReplaySuiteRun re-runs the analysis plane of a recorded suite run
// offline, reproducing the live findings without the simulated cluster.
func ReplaySuiteRun(a *SessionArchive) (*SuiteResult, error) { return pperfmark.Replay(a) }

// ReplayOptions carry what-if threshold overrides for offline replay.
type ReplayOptions = pperfmark.ReplayOptions

// ReplaySuiteRunWith replays with what-if Consultant-threshold overrides
// applied over the recorded configuration.
func ReplaySuiteRunWith(a *SessionArchive, o ReplayOptions) (*SuiteResult, error) {
	return pperfmark.ReplayWith(a, o)
}

// The multi-run experiment store (see PERFDB.md).
type (
	// ExperimentStore is a directory of compacted run archives plus a
	// metadata index, with cross-run regression diagnosis.
	ExperimentStore = perfdb.Store
	// StoredRun is one stored run's index entry.
	StoredRun = perfdb.RunMeta
	// RunView is a stored run materialized for querying.
	RunView = perfdb.RunView
	// RunDiff is the ranked comparison of two stored runs.
	RunDiff = perfdb.DiffReport
	// StreamRecorder records a live session straight to a chunked
	// compacted archive in bounded memory (RunOptions.Record /
	// Options.Recorder).
	StreamRecorder = perfdb.StreamRecorder
)

// OpenExperimentStore opens (creating if needed) an experiment store.
func OpenExperimentStore(dir string) (*ExperimentStore, error) { return perfdb.Open(dir) }

// NewStreamRecorder opens a streaming session recorder writing to path.
func NewStreamRecorder(path string) (*StreamRecorder, error) { return perfdb.NewStreamRecorder(path) }

// LoadAnyArchive reads a recorded session archive from disk.
func LoadAnyArchive(path string) (*SessionArchive, error) { return perfdb.LoadAny(path) }

// DiffRuns compares two stored runs (base first) pair-by-pair with the
// paper's paired-difference significance test, over the whole run at the
// default significance level.
func DiffRuns(base, neu *RunView) (*RunDiff, error) {
	return perfdb.Compare(base, neu, perfdb.CompareOptions{})
}

// Comparators.
type (
	// Tracer is the MPE/Jumpshot-style trace comparator.
	Tracer = mpe.Tracer
	// FlatProfile is the gprof-style comparator.
	FlatProfile = gprofsim.Profile
	// PrestaConfig configures the Presta rma stress benchmark.
	PrestaConfig = presta.Config
	// PrestaComparison is a Presta-vs-tool measurement comparison.
	PrestaComparison = presta.Comparison
	// PairedResult is a paired-difference significance test outcome.
	PairedResult = stats.PairedResult
)

// AttachTracer installs MPE-style tracing on a session's world (before
// Launch).
func AttachTracer(s *Session) *Tracer { return mpe.Attach(s.World) }

// AttachProfiler installs gprof-style profiling on a session's world.
func AttachProfiler(s *Session) *gprofsim.Profiler { return gprofsim.Attach(s.World) }

// ComparePresta runs the Presta rma benchmark repeatedly under the tool and
// applies the paper's significance test.
func ComparePresta(impl mpi.ImplKind, cfg PrestaConfig, mode presta.Mode, runs int) (*PrestaComparison, error) {
	return presta.Compare(impl, cfg, mode, runs)
}

// ParseLAMMpirun exposes the LAM process-placement notation parser (§4.1.2).
func ParseLAMMpirun(spec *cluster.Spec, argv []string) (*cluster.LaunchPlan, error) {
	return cluster.ParseLAMMpirun(spec, argv)
}
