// Package pperfmark implements PPerfMark, the performance-tool benchmark
// suite the paper introduces (§5): a port of the Grindstone PVM test suite
// to MPI-1, extended with new MPI-2 programs for RMA, dynamic process
// creation, and window lifecycle. Each program has a precisely known
// behaviour — a synchronization bottleneck in a named function, a
// computational bottleneck, known message/byte/RMA-operation counts — so a
// performance tool can be judged by whether it finds what is planted
// (Tables 2 and 3).
package pperfmark

import (
	"pperf/internal/consultant"
	"pperf/internal/mpi"
	"pperf/internal/sim"
)

// Params configures a PPerfMark program. The zero value of any field means
// "use the program's default". The paper's parameter values (§5.1, §5.2)
// are retained in each program's registry entry as PaperParams; the runnable
// defaults are scaled down so a full suite executes in seconds of wall time,
// with the scaling recorded in EXPERIMENTS.md.
type Params struct {
	// Iterations is the main loop count.
	Iterations int
	// MessageSize is the per-message payload in bytes.
	MessageSize int
	// Messages is the inner per-iteration message count (wrong-way).
	Messages int
	// TimeToWaste is the relative busy-work amount (TIMETOWASTE), in
	// WasteUnit units.
	TimeToWaste int
	// Procs is the MPI process count.
	Procs int
	// WasteUnit is the duration of one TimeToWaste unit.
	WasteUnit sim.Duration
	// Windows is the window count for wincreate-blast.
	Windows int
	// Children is the spawned process count; only spawn programs default it above 0.
	Children int
}

func (p Params) waste() sim.Duration {
	return sim.Duration(p.TimeToWaste) * p.WasteUnit
}

// Entry describes one suite program.
type Entry struct {
	Name string
	// MPI2 marks the MPI-2 portion of the suite (Table 3 vs Table 2).
	MPI2 bool
	// Description matches the paper's program characteristics column.
	Description string
	// Defaults are the scaled runnable parameters.
	Defaults Params
	// PaperParams are the values the paper used, for reference.
	PaperParams string
	// Make builds the program for the given (merged) parameters.
	Make func(p Params) mpi.Program
	// NeedsPassive marks programs requiring passive-target RMA, which only
	// the Reference personality provides (the paper's unimplementable
	// passive-target tests, §5.2.1.1).
	NeedsPassive bool
	// Extension marks programs beyond the paper's Tables (delivered future
	// work); MPI1Names and MPI2Names, and so the paper's tables, exclude them.
	Extension bool
	// Expected totals for verification, given merged params; nil entries
	// are skipped.
	ExpectedBytesSent func(p Params) float64
	ExpectedPutOps    func(p Params) float64
	ExpectedGetOps    func(p Params) float64
	ExpectedAccOps    func(p Params) float64
	ExpectedRMABytes  func(p Params) float64
	// Expect lists the findings a correct tool makes, in report order (§5).
	Expect []Expectation
	// Check, when set, judges what findings cannot: the hierarchy's windows
	// and processes. Judge runs it last.
	Check func(res *Result, v *Verdict)
	// CPUThreshold, when non-zero, replaces the Consultant's CPU threshold:
	// diffuse-procedure's 25%-per-process bottleneck needs 0.2 (§5.1.6).
	CPUThreshold float64
	// PaperResult is the paper's verdict when not "Pass" (system-time's
	// designed "Fail", where passing means finding nothing).
	PaperResult string
}

// Expectation is one finding: some true Consultant node under hypothesis Hyp
// whose focus names one of Focus. An empty Focus asks only that Hyp test
// true at the top level, and an empty Hyp as well that any hypothesis does.
// Absent inverts it: no such node. Impls limits it to those personalities
// (nil: all). Judge reports Detail when it holds and Problem when not.
type Expectation struct {
	Hyp             string
	Focus           []string
	Impls           []mpi.ImplKind
	Absent          bool
	Detail, Problem string
}

// under limits x to the personalities impls.
func (x Expectation) under(impls ...mpi.ImplKind) Expectation {
	x.Impls = impls
	return x
}

// The expectations most programs share.
var (
	syncTrue = Expectation{Hyp: consultant.HypSync, Detail: "ExcessiveSyncWaitingTime true", Problem: "sync hypothesis false"}
	cpuTrue  = Expectation{Hyp: consultant.HypCPU, Detail: "CPUBound true", Problem: "CPU hypothesis false"}
	window   = findSync("identified the RMA window", "window not identified", "/SyncObject/Window/")
)

// findSync and findCPU expect a true node under the sync or the CPU
// hypothesis whose focus names one of focus.
func findSync(detail, problem string, focus ...string) Expectation {
	return Expectation{Hyp: consultant.HypSync, Focus: focus, Detail: detail, Problem: problem}
}

func findCPU(detail, problem string, focus ...string) Expectation {
	return Expectation{Hyp: consultant.HypCPU, Focus: focus, Detail: detail, Problem: problem}
}

var registry = map[string]*Entry{}
var order []string

func init() {
	for _, suite := range [][]Entry{mpi1Suite, mpi2Suite, extensionSuite} {
		for i := range suite {
			e := &suite[i]
			if _, dup := registry[e.Name]; dup {
				panic("pperfmark: duplicate program " + e.Name)
			}
			registry[e.Name] = e
			order = append(order, e.Name)
		}
	}
}

// Get returns the named program entry, or nil.
func Get(name string) *Entry { return registry[name] }

// Names lists all programs in suite order.
func Names() []string { return append([]string(nil), order...) }

// MPI1Names and MPI2Names list the two paper-suite halves (extensions
// excluded).
func MPI1Names() []string { return paperNames(false) }
func MPI2Names() []string { return paperNames(true) }

func paperNames(mpi2 bool) []string {
	var out []string
	for _, n := range order {
		if registry[n].MPI2 == mpi2 && !registry[n].Extension {
			out = append(out, n)
		}
	}
	return out
}

// Program builds the named program with p merged over its defaults, as
// NewSpec merges and refuses them, and returns the merged params.
func Program(name string, p Params) (mpi.Program, Params, error) {
	_, prog, s, err := SessionOptions(name, RunOptions{Params: p})
	return prog, s.Params, err
}
