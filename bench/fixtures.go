package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
)

// progRun names one suite program under one MPI personality; zero Params
// fields keep the program's scaled defaults.
type progRun struct {
	Prog   string
	Impl   mpi.ImplKind
	Params pperfmark.Params
}

func (p progRun) String() string { return p.Prog + "/" + p.Impl.String() }

// scale sizes the workloads. fullScale is what the benchmark measures;
// smokeScale is the same code at a fraction of the work, for the tests.
type scale struct {
	Name string

	// p2p-flood: small-messages iterations. The Consultant needs about two
	// virtual seconds (15 000 iterations) to drill down to MPI_Send and the
	// communicator; below that only the byte total is checked.
	FloodIters  int
	FloodStrict bool

	// suite-sweep: the judged runs of one rep.
	Sweep []progRun
	// traced-tcp: the traced sessions of one rep.
	Traced []progRun

	// Fixtures: archives replay-whatif replays (store-cycle stores them
	// too), and the light programs store-cycle stores in StoreVariants
	// variants each (iterations grow 10% per variant, so diffs and trends
	// have something to find).
	ReplayFix     []progRun
	StoreFix      []progRun
	StoreVariants int

	// replay-whatif: Consultant threshold overrides replayed per archive.
	// Entry 0 must be the zero override (checked against the live report).
	Grid []pperfmark.ReplayOptions

	// store-cycle: runs removed before the final GC.
	Removes int
}

var whatIfGrid = []pperfmark.ReplayOptions{
	{},
	{SyncThreshold: 0.1},
	{SyncThreshold: 0.4},
	{SyncThreshold: 0.999999},
	{IOThreshold: 0.05},
	{CPUThreshold: 0.1},
	{CPUThreshold: 0.6},
	{SyncThreshold: 0.05, IOThreshold: 0.05, CPUThreshold: 0.05},
}

// fullScale is sized so that one rep takes 0.4-2.5 s on the 2-core
// sandbox and an 8 s run holds 4-11 of them (see README "Sizing").
var fullScale = scale{
	Name:        "full",
	FloodIters:  15000,
	FloodStrict: true,
	Sweep: []progRun{
		{Prog: "big-message", Impl: mpi.LAM},
		{Prog: "intensive-server", Impl: mpi.MPICH2},
		{Prog: "random-barrier", Impl: mpi.LAM},
		{Prog: "diffuse-procedure", Impl: mpi.LAM},
		{Prog: "hot-procedure", Impl: mpi.MPICH},
		{Prog: "system-time", Impl: mpi.LAM},
		{Prog: "system-time", Impl: mpi.MPICH},
		{Prog: "system-time", Impl: mpi.MPICH2},
		{Prog: "allcount", Impl: mpi.LAM},
		{Prog: "allcount", Impl: mpi.MPICH},
		{Prog: "allcount", Impl: mpi.MPICH2},
		{Prog: "wincreate-blast", Impl: mpi.LAM},
		{Prog: "wincreate-blast", Impl: mpi.MPICH},
		{Prog: "wincreate-blast", Impl: mpi.MPICH2},
		{Prog: "winfence-sync", Impl: mpi.MPICH2},
		{Prog: "winscpw-sync", Impl: mpi.LAM},
		{Prog: "winscpw-sync", Impl: mpi.MPICH2},
		{Prog: "spawncount", Impl: mpi.LAM},
		{Prog: "spawncount", Impl: mpi.MPICH},
		{Prog: "spawncount", Impl: mpi.MPICH2},
		{Prog: "spawnsync", Impl: mpi.LAM},
		{Prog: "spawnwin-sync", Impl: mpi.LAM},
		{Prog: "oned", Impl: mpi.MPICH},
	},
	Traced: []progRun{
		{Prog: "wrong-way", Impl: mpi.LAM, Params: pperfmark.Params{Iterations: 15}},
		{Prog: "sstwod", Impl: mpi.LAM, Params: pperfmark.Params{Iterations: 300}},
		{Prog: "random-barrier", Impl: mpi.LAM, Params: pperfmark.Params{Iterations: 200}},
	},
	ReplayFix: []progRun{
		{Prog: "random-barrier", Impl: mpi.LAM},
		{Prog: "winfence-sync", Impl: mpi.LAM},
		{Prog: "intensive-server", Impl: mpi.LAM},
	},
	StoreFix: []progRun{
		{Prog: "hot-procedure", Impl: mpi.MPICH2},
		{Prog: "fileio-bound", Impl: mpi.LAM},
		{Prog: "winscpw-sync", Impl: mpi.MPICH2},
		{Prog: "oned", Impl: mpi.MPICH},
	},
	StoreVariants: 3,
	Grid:          whatIfGrid,
	Removes:       3,
}

var smokeScale = scale{
	Name:       "smoke",
	FloodIters: 600,
	Sweep: []progRun{
		{Prog: "system-time", Impl: mpi.LAM},
		{Prog: "allcount", Impl: mpi.MPICH2},
		{Prog: "wincreate-blast", Impl: mpi.LAM},
		{Prog: "spawncount", Impl: mpi.LAM},
		{Prog: "spawncount", Impl: mpi.MPICH},
		{Prog: "hot-procedure", Impl: mpi.MPICH},
	},
	Traced: []progRun{
		{Prog: "wrong-way", Impl: mpi.LAM, Params: pperfmark.Params{Iterations: 2}},
		{Prog: "sstwod", Impl: mpi.LAM, Params: pperfmark.Params{Iterations: 20}},
	},
	ReplayFix: []progRun{
		{Prog: "hot-procedure", Impl: mpi.LAM},
	},
	StoreFix: []progRun{
		{Prog: "fileio-bound", Impl: mpi.LAM},
	},
	StoreVariants: 3,
	Grid:          whatIfGrid[:3],
	Removes:       1,
}

// simSeed derives the simulation seed of the i-th generated run from the
// benchmark seed: the program under test only ever sees generated inputs.
func simSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// fixtureEntry is one recorded archive.
type fixtureEntry struct {
	File    string `json:"file"` // relative to the fixture directory
	Program string `json:"program"`
	Impl    string `json:"impl"`
	Variant int    `json:"variant"`
	Bytes   int64  `json:"bytes"`
	// Report is the live run's rendered report; a replay of the archive
	// at the recorded thresholds must reproduce it byte for byte.
	Report string `json:"report,omitempty"`
}

// Group identifies the runs the store compares with each other.
func (f fixtureEntry) Group() string { return f.Program + "/" + f.Impl }

// fixtureManifest describes a fixture directory. Children refuse a
// directory whose manifest does not match the seed and scale they were
// started with, so a stale directory can never be measured by accident.
type fixtureManifest struct {
	Seed   uint64         `json:"seed"`
	Scale  string         `json:"scale"`
	Replay []fixtureEntry `json:"replay"`
	Store  []fixtureEntry `json:"store"`
}

const manifestFile = "manifest.json"

// buildFixtures records the archives replay-whatif and store-cycle consume
// and captures the live reports the replay checks compare against. This is
// the benchmark's set-up; setup_s times it.
func buildFixtures(dir string, seed uint64, sc *scale) (*fixtureManifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &fixtureManifest{Seed: seed, Scale: sc.Name}
	n := 0
	record := func(pr progRun, variant int) (fixtureEntry, error) {
		file := fmt.Sprintf("%s-%s-v%d.ppdb", pr.Prog, strings.ToLower(strings.ReplaceAll(pr.Impl.String(), "/", "")), variant)
		path := filepath.Join(dir, file)
		rec, err := perfdb.NewStreamRecorder(path)
		if err != nil {
			return fixtureEntry{}, err
		}
		res, err := pperfmark.Run(pr.Prog, pperfmark.RunOptions{Impl: pr.Impl, Seed: simSeed(seed, n), Params: pr.Params, Record: rec})
		n++
		if err != nil {
			rec.Abort()
			return fixtureEntry{}, fmt.Errorf("record %s: %w", pr, err)
		}
		if err := rec.Close(); err != nil {
			return fixtureEntry{}, fmt.Errorf("record %s: %w", pr, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return fixtureEntry{}, err
		}
		return fixtureEntry{
			File: file, Program: pr.Prog, Impl: pr.Impl.String(), Variant: variant, Bytes: fi.Size(),
			Report: reportText(res, renderPC(res), pperfmark.Judge(res)),
		}, nil
	}
	for _, pr := range sc.ReplayFix {
		fe, err := record(pr, 0)
		if err != nil {
			return nil, err
		}
		m.Replay = append(m.Replay, fe)
	}
	for _, pr := range sc.StoreFix {
		base := pperfmark.Get(pr.Prog)
		if base == nil {
			return nil, fmt.Errorf("unknown program %q", pr.Prog)
		}
		for v := 0; v < sc.StoreVariants; v++ {
			pv := pr
			pv.Params.Iterations = base.Defaults.Iterations * (10 + v) / 10
			fe, err := record(pv, v)
			if err != nil {
				return nil, err
			}
			fe.Report = "" // only replay fixtures are checked against it
			m.Store = append(m.Store, fe)
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), b, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// loadFixtures reads a fixture directory's manifest and refuses it unless
// it was built for this seed and scale.
func loadFixtures(dir string, seed uint64, sc *scale) (*fixtureManifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w (run the benchmark through its parent, which builds them)", err)
	}
	var m fixtureManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("fixtures: %s: %w", manifestFile, err)
	}
	if m.Seed != seed || m.Scale != sc.Name {
		return nil, fmt.Errorf("fixtures in %s are stale: built for seed %d scale %q, this run is seed %d scale %q",
			dir, m.Seed, m.Scale, seed, sc.Name)
	}
	return &m, nil
}

// renderPC is the condensed Consultant output ("" for a run without one).
func renderPC(res *pperfmark.Result) string {
	if res.PC == nil {
		return ""
	}
	return res.PC.Render()
}

// reportText renders a judged result the way the pperf CLI prints it:
// header, condensed Consultant output (pc, from renderPC), judgement. It
// is what the digests hash and what a replay must reproduce.
func reportText(res *pperfmark.Result, pc string, v *pperfmark.Verdict) string {
	var b strings.Builder
	if res.Unsupported != nil {
		fmt.Fprintf(&b, "%s under %s: %v\n", res.Program, res.Impl, res.Unsupported)
		return b.String()
	}
	fmt.Fprintf(&b, "%s under %s - virtual runtime %v, %d probe executions\n", res.Program, res.Impl, res.RunTime, res.ProbeExecs)
	b.WriteString(pc)
	if v != nil {
		fmt.Fprintf(&b, "pass=%v\n", v.Pass)
		for _, d := range v.Details {
			fmt.Fprintln(&b, "  +", d)
		}
		for _, p := range v.Problems {
			fmt.Fprintln(&b, "  -", p)
		}
	}
	return b.String()
}
