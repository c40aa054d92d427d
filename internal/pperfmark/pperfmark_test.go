package pperfmark

import (
	"strings"
	"testing"

	"pperf/internal/mpi"
)

func TestRegistryComplete(t *testing.T) {
	mpi1 := []string{"small-messages", "big-message", "wrong-way", "intensive-server",
		"random-barrier", "diffuse-procedure", "system-time", "hot-procedure", "sstwod"}
	mpi2 := []string{"allcount", "wincreate-blast", "winfence-sync", "winscpw-sync",
		"spawncount", "spawnsync", "spawnwin-sync", "oned"}
	ext := []string{"winlock-sync", "fileio-bound"}
	for _, n := range mpi1 {
		e := Get(n)
		if e == nil || e.MPI2 {
			t.Errorf("MPI-1 program %s missing or misfiled", n)
		}
	}
	for _, n := range mpi2 {
		e := Get(n)
		if e == nil || !e.MPI2 {
			t.Errorf("MPI-2 program %s missing or misfiled", n)
		}
	}
	for _, n := range ext {
		e := Get(n)
		if e == nil || !e.Extension {
			t.Errorf("extension program %s missing or misfiled", n)
		}
	}
	extensions := 0
	for _, n := range Names() {
		if Get(n).Extension {
			extensions++
		}
	}
	if len(MPI1Names()) != len(mpi1) || len(MPI2Names()) != len(mpi2) || extensions != len(ext) {
		t.Errorf("suite sizes: %d/%d/%d, want %d/%d/%d",
			len(MPI1Names()), len(MPI2Names()), extensions, len(mpi1), len(mpi2), len(ext))
	}
}

func TestParamsMerge(t *testing.T) {
	want := Get("small-messages").Defaults
	want.Iterations = 5
	if _, p, err := Program("small-messages", Params{Iterations: 5}); err != nil || p != want {
		t.Errorf("merged = %+v (%v), want %+v", p, err, want)
	}
}

// The paper's layouts: a 2-proc program gets one rank per node, a 6-proc
// program two per node, a spawn program a node for its parent and for each
// child.
func TestLayout(t *testing.T) {
	for _, tc := range []struct {
		name        string
		p           Params
		nodes, cpus int
	}{
		{"big-message", Params{Procs: 2}, 2, 1},
		{"small-messages", Params{Procs: 6}, 3, 2},
		{"spawncount", Params{Procs: 1, Children: 4}, 5, 1},
	} {
		if nodes, cpus := Layout(tc.name, tc.p); nodes != tc.nodes || cpus != tc.cpus {
			t.Errorf("Layout(%s, %d procs) = %d×%d, want %d×%d", tc.name, tc.p.Procs, nodes, cpus, tc.nodes, tc.cpus)
		}
	}
}

func TestUnknownProgram(t *testing.T) {
	if _, _, err := Program("nope", Params{}); err == nil {
		t.Error("unknown program should error")
	}
	if _, err := Run("nope", RunOptions{Impl: mpi.LAM}); err == nil {
		t.Error("Run of unknown program should error")
	}
}

func TestProgramRefusesNegativeParams(t *testing.T) {
	for _, p := range []Params{{Iterations: -5}, {Procs: -1}, {TimeToWaste: -3}, {WasteUnit: -1}, {Children: -2}} {
		if _, _, err := Program("small-messages", p); err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("Program(%+v) = %v, want a refusal", p, err)
		}
	}
}

// judgePass runs a program with reduced iterations, recorded, and asserts
// the verdict — and that the recording replays to everything the live run
// showed, so replay == live holds on every judged run. Each judged run is its
// own session, so the tests that judge run in parallel (t.Parallel first).
func judgePass(t *testing.T, name string, impl mpi.ImplKind, p Params) *Verdict {
	t.Helper()
	c := recorded(t, &cell{program: name, opt: RunOptions{Impl: impl, Params: p}})
	v := Judge(c.live)
	if !v.Pass {
		t.Errorf("%s/%s failed: %v\n%s", name, impl, v.Problems, c.live.PC.Render())
	}
	sameReplay(t, c)
	return v
}

func TestSmallMessagesLAM(t *testing.T) {
	t.Parallel()
	v := judgePass(t, "small-messages", mpi.LAM, Params{Iterations: 15000})
	if len(v.Details) == 0 {
		t.Error("no details recorded")
	}
}

func TestSmallMessagesMPICHShowsIO(t *testing.T) {
	t.Parallel()
	judgePass(t, "small-messages", mpi.MPICH, Params{Iterations: 15000})
}

func TestBigMessage(t *testing.T) {
	t.Parallel()
	judgePass(t, "big-message", mpi.LAM, Params{Iterations: 800})
	judgePass(t, "big-message", mpi.MPICH, Params{Iterations: 800})
}

func TestWrongWay(t *testing.T) {
	t.Parallel()
	judgePass(t, "wrong-way", mpi.LAM, Params{})
	judgePass(t, "wrong-way", mpi.MPICH, Params{})
}

func TestIntensiveServer(t *testing.T) {
	t.Parallel()
	judgePass(t, "intensive-server", mpi.LAM, Params{Iterations: 100})
}

func TestRandomBarrier(t *testing.T) {
	t.Parallel()
	judgePass(t, "random-barrier", mpi.LAM, Params{Iterations: 250})
	judgePass(t, "random-barrier", mpi.MPICH, Params{Iterations: 250})
}

func TestDiffuseProcedure(t *testing.T) {
	t.Parallel()
	judgePass(t, "diffuse-procedure", mpi.LAM, Params{})
}

func TestSystemTimeExpectedFail(t *testing.T) {
	t.Parallel()
	v := judgePass(t, "system-time", mpi.LAM, Params{})
	if v.PaperResult != "Fail" {
		t.Error("system-time should be recorded as the paper's designed failure")
	}
}

func TestHotProcedure(t *testing.T) {
	t.Parallel()
	judgePass(t, "hot-procedure", mpi.LAM, Params{})
}

func TestSstwod(t *testing.T) {
	t.Parallel()
	judgePass(t, "sstwod", mpi.LAM, Params{})
}

func TestAllcount(t *testing.T) {
	t.Parallel()
	judgePass(t, "allcount", mpi.LAM, Params{})
	judgePass(t, "allcount", mpi.MPICH2, Params{})
}

func TestWincreateBlast(t *testing.T) {
	t.Parallel()
	judgePass(t, "wincreate-blast", mpi.LAM, Params{})
}

func TestWinfenceSync(t *testing.T) {
	t.Parallel()
	judgePass(t, "winfence-sync", mpi.LAM, Params{})
	judgePass(t, "winfence-sync", mpi.MPICH2, Params{})
}

func TestWinscpwSyncImplDifference(t *testing.T) {
	t.Parallel()
	judgePass(t, "winscpw-sync", mpi.LAM, Params{})
	judgePass(t, "winscpw-sync", mpi.MPICH2, Params{})
}

func TestSpawncount(t *testing.T) {
	t.Parallel()
	judgePass(t, "spawncount", mpi.LAM, Params{})
}

func TestSpawnsync(t *testing.T) {
	t.Parallel()
	judgePass(t, "spawnsync", mpi.LAM, Params{})
}

func TestSpawnwinSync(t *testing.T) {
	t.Parallel()
	judgePass(t, "spawnwin-sync", mpi.LAM, Params{})
}

func TestOned(t *testing.T) {
	t.Parallel()
	judgePass(t, "oned", mpi.LAM, Params{})
	judgePass(t, "oned", mpi.MPICH2, Params{})
}

func TestWinlockSyncExtension(t *testing.T) {
	t.Parallel()
	// The paper's unimplementable passive-target test, delivered on the
	// Reference personality.
	judgePass(t, "winlock-sync", mpi.Reference, Params{})
	// Under LAM (no passive target in 2004), it is skipped.
	res, err := Run("winlock-sync", RunOptions{Impl: mpi.LAM})
	if err != nil {
		t.Fatal(err)
	}
	if v := Judge(res); v.Skipped == "" {
		t.Error("winlock-sync under LAM should be skipped as unsupported")
	}
}

func TestFileioBound(t *testing.T) {
	t.Parallel()
	judgePass(t, "fileio-bound", mpi.MPICH2, Params{})
	judgePass(t, "fileio-bound", mpi.LAM, Params{})
}

func TestSpawnProgramsSkippedOnMPICH2(t *testing.T) {
	res, err := Run("spawnsync", RunOptions{Impl: mpi.MPICH2})
	if err != nil {
		t.Fatal(err)
	}
	v := Judge(res)
	if v.Skipped == "" {
		t.Error("spawnsync under MPICH2 should be skipped as unsupported")
	}
}

// Most of the suite is written for an even process count; at three, some
// programs leave a rank blocked for ever. Every one must still end — with a
// result, or with the engine's deadlock report naming the blocked calls —
// and end the same way when run again.
func TestEveryProgramEndsAtThreeProcesses(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func() string {
				res, err := Run(name, RunOptions{Seed: 7, Params: Params{Procs: 3}})
				if err == nil {
					return snapshot(t, res)
				}
				if !strings.Contains(err.Error(), "sim: deadlock") || !strings.Contains(err.Error(), "in MPI_") {
					t.Fatal(err)
				}
				return err.Error()
			}
			diffSnapshots(t, name+" run twice", run(), run())
		})
	}
}
