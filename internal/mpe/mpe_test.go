package mpe

import (
	"math"
	"strings"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/mpi"
	"pperf/internal/sim"
)

func runTraced(t *testing.T, kind mpi.ImplKind, n int, prog mpi.Program) *Tracer {
	t.Helper()
	eng := sim.NewEngine(5)
	w := mpi.NewWorld(eng, cluster.DefaultSpec(n, 1), mpi.NewImpl(kind))
	tr := Attach(w)
	w.Register("main", prog)
	if _, err := w.LaunchN("main", n, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracerRecordsIntervals(t *testing.T) {
	tr := runTraced(t, mpi.LAM, 2, func(r *mpi.Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			r.Compute(1 * sim.Second)
			c.Send(r, nil, 4, mpi.Byte, 1, 0)
		} else {
			c.Recv(r, nil, 4, mpi.Byte, 0, 0)
		}
	})
	if len(tr.intervals) == 0 {
		t.Fatal("no intervals recorded")
	}
	// rank 1 spent ≈1s in MPI_Recv.
	procs := tr.Procs()
	if len(procs) != 2 {
		t.Fatalf("procs = %v", procs)
	}
	recv := tr.StateTime(procs[1], "MPI_Recv")
	if recv < 900*sim.Millisecond {
		t.Errorf("recv state time = %v, want ≈1s", recv)
	}
}

func TestNestedCallsMergeIntoOutermostState(t *testing.T) {
	// LAM's barrier nests Isend/Waitall; Jumpshot-style logs show one
	// MPI_Barrier state, not the internals.
	tr := runTraced(t, mpi.LAM, 2, func(r *mpi.Rank, _ []string) {
		if r.Rank() == 0 {
			r.Compute(500 * sim.Millisecond)
		}
		r.World().Barrier(r)
	})
	for _, iv := range tr.intervals {
		if iv.State == "MPI_Isend" || iv.State == "MPI_Waitall" {
			t.Errorf("internal state %s leaked into the trace", iv.State)
		}
	}
	if tr.StateTime("", "MPI_Barrier") == 0 {
		t.Error("no MPI_Barrier state recorded")
	}
}

func TestPMPINamesCanonicalized(t *testing.T) {
	tr := runTraced(t, mpi.MPICH, 2, func(r *mpi.Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			c.Send(r, nil, 4, mpi.Byte, 1, 0)
		} else {
			c.Recv(r, nil, 4, mpi.Byte, 0, 0)
		}
	})
	for _, s := range tr.States() {
		if strings.HasPrefix(s, "PMPI_") {
			t.Errorf("state %s should display as MPI_*", s)
		}
	}
}

func TestAvgConcurrencyIntensiveServerShape(t *testing.T) {
	// Fig 12: with 3 processes (1 server + 2 clients), roughly 2 are inside
	// MPI_Recv at any time.
	tr := runTraced(t, mpi.LAM, 3, func(r *mpi.Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			for i := 0; i < 2*40; i++ {
				st, _ := c.Recv(r, nil, 4, mpi.Byte, mpi.AnySource, 1)
				r.Compute(20 * sim.Millisecond) // busy server
				c.Send(r, nil, 4, mpi.Byte, st.Source, 2)
			}
		} else {
			for i := 0; i < 40; i++ {
				c.Send(r, nil, 4, mpi.Byte, 0, 1)
				c.Recv(r, nil, 4, mpi.Byte, 0, 2)
			}
		}
	})
	avg := tr.AvgConcurrency("MPI_Recv")
	if math.Abs(avg-2) > 0.35 {
		t.Errorf("avg processes in MPI_Recv = %.2f, want ≈2", avg)
	}
	out := tr.StatisticalPreview()
	if !strings.Contains(out, "MPI_Recv") {
		t.Errorf("preview missing MPI_Recv:\n%s", out)
	}
}

func TestTimeLinesRendering(t *testing.T) {
	tr := runTraced(t, mpi.LAM, 2, func(r *mpi.Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			r.Compute(1 * sim.Second)
			c.Send(r, nil, 4, mpi.Byte, 1, 0)
		} else {
			c.Recv(r, nil, 4, mpi.Byte, 0, 0)
		}
	})
	out := tr.TimeLines(40)
	if !strings.Contains(out, "|") || !strings.Contains(out, "R") {
		t.Errorf("timeline should show the receiver's R state:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 { // header + 2 procs + legend
		t.Errorf("timeline shape:\n%s", out)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Tracer{}
	if tr.TimeLines(20) != "(empty trace)" {
		t.Error("empty timeline")
	}
	if lo, hi := tr.Span(); lo != 0 || hi != 0 {
		t.Error("empty span")
	}
	if tr.AvgConcurrency("MPI_Recv") != 0 {
		t.Error("empty concurrency")
	}
}

func TestStatisticsTable(t *testing.T) {
	tr := runTraced(t, mpi.LAM, 2, func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < 5; i++ {
			if r.Rank() == 0 {
				c.Send(r, nil, 4, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 4, mpi.Byte, 0, 0)
			}
		}
	})
	if got := tr.StateCalls("", "MPI_Send"); got != 5 {
		t.Errorf("MPI_Send calls = %d", got)
	}
	table := tr.StatisticsTable()
	for _, want := range []string{"MPI_Send", "MPI_Recv", "calls", "mean(ms)"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
