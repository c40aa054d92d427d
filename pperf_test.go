package pperf

// Facade-level integration tests: exercise the library exactly the way the
// README and examples do.

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pperf/internal/presta"
)

func TestFacadeEndToEnd(t *testing.T) {
	s, err := NewSession(Options{Impl: LAM, Nodes: 3, CPUsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.Register("app", func(r *Rank, _ []string) {
		world := r.World()
		const iters = 700
		if r.Rank() == 0 {
			for i := 0; i < iters*(r.Size()-1); i++ {
				req, _ := world.Recv(r, nil, 1, Int, AnySource, 1)
				r.Call("server.c", "handle", func() { r.Compute(3 * time.Millisecond) })
				world.Send(r, nil, 1, Int, req.Source, 2)
			}
			return
		}
		for i := 0; i < iters; i++ {
			r.Call("client.c", "request", func() {
				world.Send(r, nil, 1, Int, 0, 1)
				world.Recv(r, nil, 1, Int, 0, 2)
			})
		}
	})

	bytes := s.MustEnable("msg_bytes_sent", WholeProgram())
	if err := s.Launch("app", 4, nil); err != nil {
		t.Fatal(err)
	}
	pc := NewConsultant(s, DefaultConsultantConfig())
	if err := pc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	if !pc.TopLevelTrue(HypSync) || !pc.TopLevelTrue(HypCPU) {
		t.Errorf("hypotheses: %s", pc.Render())
	}
	if !pc.HasFinding(HypCPU, "handle") {
		t.Errorf("missing handle finding:\n%s", pc.Render())
	}
	// 700 round trips × 3 clients × 4 bytes each way.
	if got := bytes.Total(); got != 700*3*4*2 {
		t.Errorf("bytes = %v", got)
	}
	if !strings.Contains(s.FE.Hierarchy().Render(), "handle") {
		t.Error("hierarchy missing the app function")
	}
}

func TestFacadeSuiteAccess(t *testing.T) {
	progs := SuitePrograms()
	if len(progs) < 17 {
		t.Errorf("suite programs = %d", len(progs))
	}
	res, err := RunSuiteProgram("hot-procedure", SuiteOptions{Impl: LAM})
	if err != nil {
		t.Fatal(err)
	}
	v := JudgeSuiteRun(res)
	if !v.Pass {
		t.Errorf("hot-procedure verdict: %v", v.Problems)
	}
}

// A library what-if threshold obeys the CLI's and PCL's range rule: a
// non-zero value outside (0, 1] is an error, not a Consultant that can never
// latch or a silent "keep the recorded value".
func TestFacadeWhatIfThresholdRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ppdb")
	rec, err := NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	// The overrides are checked before anything is replayed, so the
	// cheapest archive will do: a spawn program MPICH cannot run.
	if _, err := RunSuiteProgram("spawncount", SuiteOptions{Impl: MPICH, Record: rec}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := LoadAnyArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := ReplaySuiteRunWith(a, ReplayOptions{CPUThreshold: v}); err == nil || !strings.Contains(err.Error(), "(0, 1]") {
			t.Errorf("CPUThreshold %v: err = %v, want the (0, 1] range error", v, err)
		}
	}
	if _, err := ReplaySuiteRunWith(a, ReplayOptions{CPUThreshold: 1}); err != nil {
		t.Errorf("CPUThreshold 1: %v", err)
	}
}

func TestFacadeTracerAndProfiler(t *testing.T) {
	s, err := NewSession(Options{Impl: LAM, Nodes: 2, CPUsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := AttachTracer(s)
	prof := AttachProfiler(s)
	s.Register("x", func(r *Rank, _ []string) {
		c := r.World()
		r.Call("x.c", "work", func() { r.Compute(100 * time.Millisecond) })
		c.Barrier(r)
	})
	if err := s.Launch("x", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.StateTime("", "MPI_Barrier") <= 0 {
		t.Error("tracer saw no barrier time")
	}
	if prof.Snapshot().Percent("work") < 90 {
		t.Error("profiler missed the work function")
	}
	// The profiler listens for new functions beside the daemons, not in their
	// place: the Code hierarchy still fills in.
	if s.FE.Hierarchy().FindPath("/Code/x.c/work") == nil {
		t.Errorf("/Code/x.c/work missing with the profiler attached:\n%s", s.FE.Hierarchy().Render())
	}
}

func TestFacadeMDLCompile(t *testing.T) {
	lib, err := CompileMDL(`
resourceList fx is procedure { "MPI_Barrier" };
metric fx_count {
    name "fx_count"; units ops; unitstype unnormalized;
    aggregateOperator sum; style EventCounter;
    base is counter { foreach func in fx { append preinsn func.entry constrained (* fx_count++; *) } }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Metric("fx_count") == nil || lib.Metric("rma_put_ops") == nil {
		t.Error("merged library incomplete")
	}
}

func TestFacadePresta(t *testing.T) {
	cmp, err := ComparePresta(LAM, PrestaConfig{Bytes: 512, OpsPerEpoch: 100, Epochs: 10}, presta.UniPut, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OpsDiff.Significant {
		t.Error("op counts should agree")
	}
}

func TestFacadeMpirunParsing(t *testing.T) {
	s, err := NewSession(Options{Impl: LAM, Nodes: 5, CPUsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := ParseLAMMpirun(s.Spec, []string{"n0-2,4", "prog"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Placements) != 4 {
		t.Errorf("procs = %d", len(plan.Placements))
	}
}
