package core

import (
	"strings"
	"sync"
	"testing"

	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// pingPong registers a 2-rank program: rank 0 computes and sends, rank 1
// receives inside a traced procedure.
func pingPong(iters int, work sim.Duration) mpi.Program {
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < iters; i++ {
			if r.Rank() == 0 {
				r.Call("app.c", "produce", func() { r.Compute(work) })
				c.Send(r, nil, 25, mpi.Int, 1, 3)
			} else {
				r.Call("app.c", "consume", func() {
					c.Recv(r, nil, 25, mpi.Int, 0, 3)
				})
			}
		}
	}
}

func newTestSession(t *testing.T, opts Options) *Session {
	t.Helper()
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSessionCollectsSeries(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
	s.Register("pp", pingPong(200, 50*sim.Millisecond))
	sr := s.MustEnable("msg_bytes_sent", resource.WholeProgram())
	if err := s.Launch("pp", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 200 sends × 100 bytes.
	if got := sr.Total(); got != 20000 {
		t.Errorf("bytes sent total = %v, want 20000", got)
	}
	if len(sr.Procs()) != 2 { // both ranks report (receiver with zero deltas)
		t.Errorf("procs reporting sends = %v", sr.Procs())
	}
	if sr.Histogram().NumFilled() < 10 {
		t.Errorf("histogram filled bins = %d, want a time series", sr.Histogram().NumFilled())
	}
}

func TestSessionResourceDiscovery(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
	s.Register("pp", pingPong(50, 10*sim.Millisecond))
	if err := s.Launch("pp", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	h := s.FE.Hierarchy()
	for _, path := range []string{
		"/Machine/node0/pp{0}",
		"/Machine/node1/pp{1}",
		"/Code/app.c/produce",
		"/Code/app.c/consume",
		"/Code/liblammpi.so/MPI_Send",
		"/SyncObject/Message/comm-1",
		"/SyncObject/Message/comm-1/tag-3",
	} {
		if h.FindPath(path) == nil {
			t.Errorf("resource %s not discovered\n%s", path, h.Render())
		}
	}
	// Call graph: consume → MPI_Recv observed.
	callees := s.FE.Callees("consume")
	if len(callees) == 0 || callees[0] != "MPI_Recv" {
		t.Errorf("callees of consume = %v", callees)
	}
}

func TestSessionEnableMidRunAndDisable(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
	s.Register("pp", pingPong(400, 10*sim.Millisecond))
	if err := s.Launch("pp", 2, nil); err != nil {
		t.Fatal(err)
	}
	var sr interface{ Total() float64 }
	// Enable after ~1s of virtual time — dynamic instrumentation mid-run.
	s.Eng.At(sim.Time(1*sim.Second), func() {
		series, err := s.Enable("msgs_sent", resource.WholeProgram())
		if err != nil {
			t.Error(err)
			return
		}
		sr = series
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	total := sr.Total()
	if total <= 0 || total >= 400 {
		t.Errorf("mid-run enabled counter = %v, want partial count in (0,400)", total)
	}
}

func TestSessionTCPTransport(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.MPICH, Nodes: 2, CPUsPerNode: 1, UseTCP: true})
	s.Register("pp", pingPong(100, 10*sim.Millisecond))
	sr := s.MustEnable("msgs_sent", resource.WholeProgram())
	if err := s.Launch("pp", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sr.Total(); got != 100 {
		t.Errorf("msgs over TCP transport = %v, want 100", got)
	}
	if s.FE.Hierarchy().FindPath("/Machine/node0/pp{0}") == nil {
		t.Error("resource updates should flow over TCP")
	}
}

func TestSessionWindowDiscoveryAndRetirement(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
	s.Register("rma", func(r *mpi.Rank, _ []string) {
		win, _ := r.World().WinCreate(r, 64, 1, nil)
		if r.Rank() == 0 {
			win.SetName("MyWindow")
		}
		win.Fence(0)
		if r.Rank() == 0 {
			win.Put(nil, 8, mpi.Byte, 1, 0, 8, mpi.Byte)
		}
		win.Fence(0)
		win.Free()
	})
	if err := s.Launch("rma", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	h := s.FE.Hierarchy()
	winNode := h.FindPath("/SyncObject/Window/0-1")
	if winNode == nil {
		t.Fatalf("window resource missing:\n%s", h.Render())
	}
	if winNode.DisplayName() != "MyWindow" {
		t.Errorf("window display name = %q", winNode.DisplayName())
	}
	if !winNode.Retired() {
		t.Error("freed window should be retired")
	}
	// LAM quirk: the window's internal communicator surfaces under Message
	// with the window's name (Fig 23).
	found := false
	for _, c := range h.Find(resource.SyncObject, resource.Message).Children() {
		if c.DisplayName() == "MyWindow" {
			found = true
		}
	}
	if !found {
		t.Error("LAM window name should appear under /SyncObject/Message")
	}
}

func TestSessionSpawnDiscovery(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 3, CPUsPerNode: 1})
	s.Register("child", func(r *mpi.Rank, _ []string) {
		parent := r.GetParent()
		parent.Send(r, nil, 1, mpi.Byte, 0, 9)
	})
	s.Register("parent", func(r *mpi.Rank, _ []string) {
		inter, err := r.World().Spawn(r, "child", nil, 3, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		inter.SetName(r, "Parent&Child")
		for i := 0; i < 3; i++ {
			inter.Recv(r, nil, 1, mpi.Byte, mpi.AnySource, 9)
		}
	})
	if err := s.Launch("parent", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	h := s.FE.Hierarchy()
	// The resource hierarchy grew by the three child processes (Fig 23).
	count := 0
	h.Find(resource.Machine).Walk(func(n *resource.Node) {
		if strings.HasPrefix(n.Name(), "child{") {
			count++
		}
	})
	if count != 3 {
		t.Errorf("found %d child process resources, want 3\n%s", count, h.Render())
	}
	// The named intercommunicator is visible.
	named := false
	h.Find(resource.SyncObject, resource.Message).Walk(func(n *resource.Node) {
		if n.DisplayName() == "Parent&Child" {
			named = true
		}
	})
	if !named {
		t.Error("intercommunicator friendly name missing")
	}
}

func TestSessionUserMDL(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1, UserMDL: `
resourceList barrier_fns is procedure { "MPI_Barrier", "PMPI_Barrier" };
metric barrier_count {
    name "barrier_count";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    base is counter {
        foreach func in barrier_fns {
            append preinsn func.entry constrained (* barrier_count++; *)
        }
    }
}`})
	s.Register("b", func(r *mpi.Rank, _ []string) {
		for i := 0; i < 7; i++ {
			r.World().Barrier(r)
		}
	})
	sr := s.MustEnable("barrier_count", resource.WholeProgram())
	if err := s.Launch("b", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sr.Total(); got != 14 { // 7 per rank × 2 ranks
		t.Errorf("barrier_count = %v, want 14", got)
	}
}

// A user metric that could not execute stops the session from being built:
// nothing has run yet, and the error names the line, the metric and the
// culprit.
func TestSessionRejectsBrokenUserMDL(t *testing.T) {
	s, err := NewSession(Options{Impl: mpi.LAM, Nodes: 1, CPUsPerNode: 1, UserMDL: `
resourceList barrier_fns is procedure { "MPI_Barrier" };
metric broken {
    name "broken"; units ops;
    base is counter {
        foreach func in barrier_fns { append preinsn func.entry (* ghost++; *) }
    }
}`})
	if err == nil {
		s.Close()
		t.Fatal("session built with a metric that names an undeclared counter")
	}
	if want := `mdl:6: metric broken: unknown counter "ghost"`; !strings.Contains(err.Error(), want) {
		t.Errorf("NewSession error = %v, want it to contain %q", err, want)
	}
}

func TestSessionPerProcessHistograms(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
	s.Register("pp", pingPong(100, 20*sim.Millisecond))
	sr := s.MustEnable("sync_wait_inclusive", resource.WholeProgram())
	if err := s.Launch("pp", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The receiver (pp{1}) waits for the producer's compute: its sync time
	// dominates the producer's.
	h0, h1 := sr.ProcHistogram("pp{0}"), sr.ProcHistogram("pp{1}")
	if h0 == nil || h1 == nil {
		t.Fatalf("per-proc histograms missing: %v", sr.Procs())
	}
	if h1.Total() <= h0.Total() {
		t.Errorf("receiver sync %.3f should exceed sender sync %.3f", h1.Total(), h0.Total())
	}
	out := s.FE.RenderSeries(sr, 40)
	if !strings.Contains(out, "pp{1}") {
		t.Errorf("render missing per-proc lines:\n%s", out)
	}
}

// Sixteen sessions built and run at once share the process's one compiled
// standard library — the specs' code included — and each still counts its own
// messages: an instance's state is its frame, never the library. Run under
// -race (make race) this is the check that nothing writes to a Library after
// Compile.
func TestParallelSessionsShareTheStandardLibrary(t *testing.T) {
	const sessions = 16
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSession(Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			if s.Lib != mdl.StdLib() {
				t.Errorf("session %d compiled a library of its own", i)
			}
			iters := 20 + i
			s.Register("pp", pingPong(iters, sim.Millisecond))
			sent := s.MustEnable("msgs_sent", resource.WholeProgram())
			tagged := s.MustEnable("msgs_sent", resource.WholeProgram().WithSync("/SyncObject/Message/comm-1/tag-3"))
			other := s.MustEnable("msgs_sent", resource.WholeProgram().WithSync("/SyncObject/Message/comm-1/tag-4"))
			wait := s.MustEnable("sync_wait_inclusive", resource.WholeProgram().WithCode("/Code/app.c/consume"))
			if err := s.Launch("pp", 2, nil); err != nil {
				t.Error(err)
				return
			}
			if err := s.Run(); err != nil {
				t.Error(err)
				return
			}
			if sent.Total() != float64(iters) || tagged.Total() != float64(iters) || other.Total() != 0 || wait.Total() <= 0 {
				t.Errorf("session %d: msgs_sent %v, on tag 3 %v, on tag 4 %v, sync wait in consume %v; want %d, %d, 0, > 0",
					i, sent.Total(), tagged.Total(), other.Total(), wait.Total(), iters, iters)
			}
		}(i)
	}
	wg.Wait()
}
