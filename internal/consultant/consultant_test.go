package consultant_test

import (
	"strings"
	"testing"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/datasource"
	"pperf/internal/mpi"
	"pperf/internal/sim"
)

// runPC builds a session for the program, starts the Performance Consultant
// with the given config, runs to completion, and returns the consultant.
func runPC(t *testing.T, impl mpi.ImplKind, np int, cfg consultant.Config, prog mpi.Program) *consultant.Consultant {
	t.Helper()
	s, err := core.NewSession(core.Options{Impl: impl, Nodes: 3, CPUsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Register("main", prog)
	if err := s.Launch("main", np, nil); err != nil {
		t.Fatal(err)
	}
	pc := consultant.New(s.FE, s.Eng, cfg)
	if err := pc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return pc
}

// intensiveServerProg mimics the PPerfMark intensive-server shape: rank 0
// wastes time before replying, clients wait in MPI_Recv inside
// Grecv_message.
func intensiveServerProg(iters int) mpi.Program {
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		n := r.Size()
		if r.Rank() == 0 {
			for i := 0; i < iters*(n-1); i++ {
				st, _ := c.Recv(r, nil, 1, mpi.Int, mpi.AnySource, 1)
				r.Call("server.c", "waste_time", func() { r.Compute(20 * sim.Millisecond) })
				c.Send(r, nil, 1, mpi.Int, st.Source, 2)
			}
		} else {
			for i := 0; i < iters; i++ {
				r.Call("client.c", "Gsend_message", func() {
					c.Send(r, nil, 1, mpi.Int, 0, 1)
				})
				r.Call("client.c", "Grecv_message", func() {
					c.Recv(r, nil, 1, mpi.Int, 0, 2)
				})
			}
		}
	}
}

func TestPCFindsSyncBottleneckAndDrillsDown(t *testing.T) {
	pc := runPC(t, mpi.LAM, 4, consultant.DefaultConfig(), intensiveServerProg(400))

	if !pc.TopLevelTrue(consultant.HypSync) {
		t.Fatalf("ExcessiveSyncWaitingTime should be true:\n%s", pc.Render())
	}
	// Drill-down: Grecv_message, then MPI_Recv, then the communicator.
	if !pc.HasFinding(consultant.HypSync, "Grecv_message") {
		t.Errorf("missing Grecv_message finding:\n%s", pc.Render())
	}
	if !pc.HasFinding(consultant.HypSync, "MPI_Recv") {
		t.Errorf("missing MPI_Recv finding:\n%s", pc.Render())
	}
	if !pc.HasFinding(consultant.HypSync, "/SyncObject/Message/comm-1") {
		t.Errorf("missing communicator finding:\n%s", pc.Render())
	}
	// CPUBound should be true too (the server is busy in waste_time).
	if !pc.TopLevelTrue(consultant.HypCPU) {
		t.Errorf("CPUBound should be true:\n%s", pc.Render())
	}
	if !pc.HasFinding(consultant.HypCPU, "waste_time") {
		t.Errorf("missing waste_time CPU finding:\n%s", pc.Render())
	}
	// LAM should NOT show I/O blocking (shared-memory transport).
	if pc.TopLevelTrue(consultant.HypIO) {
		t.Errorf("LAM should not be IO bound:\n%s", pc.Render())
	}
}

func TestPCMPICHShowsIOBlocking(t *testing.T) {
	// Under MPICH the same program's message waiting goes through socket
	// read/write, so ExcessiveIOBlockingTime also tests true (Fig 3).
	pc := runPC(t, mpi.MPICH, 4, consultant.DefaultConfig(), intensiveServerProg(400))
	if !pc.TopLevelTrue(consultant.HypIO) {
		t.Errorf("MPICH should show IO blocking:\n%s", pc.Render())
	}
	if !pc.TopLevelTrue(consultant.HypSync) {
		t.Errorf("sync should also be true:\n%s", pc.Render())
	}
}

func TestPCAllFalseForQuietProgram(t *testing.T) {
	// A program that only does modest system-time work: all hypotheses
	// false — the system-time result (Table 2).
	pc := runPC(t, mpi.LAM, 2, consultant.DefaultConfig(), func(r *mpi.Rank, _ []string) {
		for i := 0; i < 100; i++ {
			r.SystemCompute(100 * sim.Millisecond)
		}
	})
	if pc.HasFinding("", "") {
		t.Errorf("all hypotheses should be false:\n%s", pc.Render())
	}
}

func TestPCCPUBoundHotProcedure(t *testing.T) {
	pc := runPC(t, mpi.LAM, 2, consultant.DefaultConfig(), func(r *mpi.Rank, _ []string) {
		for i := 0; i < 100; i++ {
			r.Call("hot.c", "bottleneckProcedure", func() { r.Compute(95 * sim.Millisecond) })
			r.Call("hot.c", "irrelevantProcedure0", func() { r.Compute(1 * sim.Millisecond) })
		}
	})
	if !pc.TopLevelTrue(consultant.HypCPU) {
		t.Fatalf("CPUBound should be true:\n%s", pc.Render())
	}
	if !pc.HasFinding(consultant.HypCPU, "bottleneckProcedure") {
		t.Errorf("missing bottleneckProcedure:\n%s", pc.Render())
	}
	if pc.HasFinding(consultant.HypCPU, "irrelevantProcedure0") {
		t.Errorf("irrelevantProcedure0 should not be a finding:\n%s", pc.Render())
	}
}

func TestPCThresholdSensitivity(t *testing.T) {
	// diffuse-procedure shape: with 4 processes the bottleneck procedure
	// uses ~25% of each process — under the default 0.3 threshold it is
	// missed; at 0.2 it is found (§5.1.6).
	prog := func(r *mpi.Rank, _ []string) {
		c := r.World()
		n := r.Size()
		for i := 0; i < 200; i++ {
			if i%n == r.Rank() {
				r.Call("diffuse.c", "bottleneckProcedure", func() { r.Compute(50 * sim.Millisecond) })
			}
			c.Barrier(r)
		}
	}
	def := runPC(t, mpi.LAM, 4, consultant.DefaultConfig(), prog)
	if def.HasFinding(consultant.HypCPU, "bottleneckProcedure") {
		t.Errorf("default threshold should miss the 25%% bottleneck:\n%s", def.Render())
	}
	low := consultant.DefaultConfig()
	low.CPUThreshold = 0.2
	found := runPC(t, mpi.LAM, 4, low, prog)
	if !found.HasFinding(consultant.HypCPU, "bottleneckProcedure") {
		t.Errorf("0.2 threshold should find the bottleneck:\n%s", found.Render())
	}
}

func TestPCWindowRefinement(t *testing.T) {
	// winfenceSync shape: rank 0 late to the fence; others wait. The PC
	// should pin the sync waiting on the RMA window resource.
	prog := func(r *mpi.Rank, _ []string) {
		c := r.World()
		win, _ := c.WinCreate(r, 64, 1, nil)
		for i := 0; i < 300; i++ {
			if r.Rank() == 0 {
				r.Call("wf.c", "waste_time", func() { r.Compute(40 * sim.Millisecond) })
			}
			if r.Rank() != 0 {
				win.Put(nil, 4, mpi.Byte, 0, 0, 4, mpi.Byte)
			}
			win.Fence(0)
		}
		win.Free()
	}
	pc := runPC(t, mpi.MPICH2, 3, consultant.DefaultConfig(), prog)
	if !pc.TopLevelTrue(consultant.HypSync) {
		t.Fatalf("sync should be true:\n%s", pc.Render())
	}
	if !pc.HasFinding(consultant.HypSync, "MPI_Win_fence") {
		t.Errorf("missing MPI_Win_fence finding:\n%s", pc.Render())
	}
	if !pc.HasFinding(consultant.HypSync, "/SyncObject/Window/0-1") {
		t.Errorf("missing window resource finding:\n%s", pc.Render())
	}
	if !pc.HasFinding(consultant.HypCPU, "waste_time") {
		t.Errorf("missing waste_time CPU finding:\n%s", pc.Render())
	}
}

func TestPCBarrierRefinement(t *testing.T) {
	// random-barrier-like: everyone waits in MPI_Barrier for a rotating
	// waster. Sync should refine to /SyncObject/Barrier.
	prog := func(r *mpi.Rank, _ []string) {
		c := r.World()
		n := r.Size()
		for i := 0; i < 120; i++ {
			if i%n == r.Rank() {
				r.Call("rb.c", "waste_time", func() { r.Compute(60 * sim.Millisecond) })
			}
			c.Barrier(r)
		}
	}
	pc := runPC(t, mpi.LAM, 4, consultant.DefaultConfig(), prog)
	if !pc.HasFinding(consultant.HypSync, "/SyncObject/Barrier") {
		t.Errorf("missing Barrier refinement:\n%s", pc.Render())
	}
	if !pc.HasFinding(consultant.HypSync, "MPI_Barrier") {
		t.Errorf("missing MPI_Barrier code finding:\n%s", pc.Render())
	}
}

func TestPCRenderShape(t *testing.T) {
	pc := runPC(t, mpi.LAM, 4, consultant.DefaultConfig(), intensiveServerProg(300))
	out := pc.Render()
	if !strings.Contains(out, "TopLevelHypothesis") {
		t.Errorf("render header missing:\n%s", out)
	}
	if !strings.Contains(out, "ExcessiveSyncWaitingTime: true") {
		t.Errorf("render should state sync true:\n%s", out)
	}
	// False hypotheses are listed but not expanded.
	if !strings.Contains(out, "ExcessiveIOBlockingTime: false") {
		t.Errorf("render should state io false:\n%s", out)
	}
}

func TestPCMachineRefinement(t *testing.T) {
	// One process (rank 0 on node0) hogging CPU: the machine axis should
	// identify the node and process.
	pc := runPC(t, mpi.LAM, 4, consultant.DefaultConfig(), func(r *mpi.Rank, _ []string) {
		if r.Rank() == 0 {
			r.Call("m.c", "spin", func() { r.Compute(10 * sim.Second) })
		} else {
			r.IdleWait(10 * sim.Second)
		}
	})
	if !pc.HasFinding(consultant.HypCPU, "/Machine/node0") {
		t.Errorf("missing machine refinement:\n%s", pc.Render())
	}
}

func TestPCPrunesFalseNodes(t *testing.T) {
	cfg := consultant.DefaultConfig()
	cfg.PruneEvals = 3
	pc := runPC(t, mpi.LAM, 2, cfg, func(r *mpi.Rank, _ []string) {
		r.IdleWait(30 * sim.Second) // nothing happening at all
	})
	for _, root := range pc.Roots() {
		if !root.Pruned {
			t.Errorf("%s should be pruned after persistent false", root.Hypothesis)
		}
	}
}

// The full search tree under Roots keeps every tested node — true ones and
// refuted or pruned ones — and Stats counts that tree.
func TestRenderFullAndStats(t *testing.T) {
	pc := runPC(t, mpi.LAM, 4, consultant.DefaultConfig(), intensiveServerProg(400))
	var nodes, trueNodes, pruned int
	var walk func(n *consultant.Node)
	walk = func(n *consultant.Node) {
		nodes++
		if n.True {
			trueNodes++
		}
		if n.Pruned {
			pruned++
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, r := range pc.Roots() {
		walk(r)
	}
	if trueNodes == 0 || nodes == trueNodes {
		t.Errorf("search tree holds %d nodes, %d true: want true and refuted nodes both", nodes, trueNodes)
	}
	tested, trueCount, prunedCount := pc.Stats()
	if tested != nodes || trueCount != trueNodes || prunedCount != pruned {
		t.Errorf("stats tested=%d true=%d pruned=%d, tree has %d/%d/%d", tested, trueCount, prunedCount, nodes, trueNodes, pruned)
	}
}

func TestPCDedupesConvergentFoci(t *testing.T) {
	// The same focus is reachable by refining axes in different orders; it
	// must be tested once. Every (hypothesis, focus) in the tree is unique.
	pc := runPC(t, mpi.LAM, 4, consultant.DefaultConfig(), intensiveServerProg(400))
	seen := map[datasource.Pair]int{}
	var walk func(n *consultant.Node)
	walk = func(n *consultant.Node) {
		seen[datasource.Pair{Metric: n.Hypothesis, Focus: n.Focus.Canon()}]++
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, r := range pc.Roots() {
		walk(r)
	}
	for k, count := range seen {
		if count > 1 {
			t.Errorf("focus tested %d times: %v", count, k)
		}
	}
}

func TestPCRefinesToProcessLevel(t *testing.T) {
	// The machine axis must reach individual processes (the paper's PC
	// identifies which process is the waster).
	pc := runPC(t, mpi.LAM, 4, consultant.DefaultConfig(), intensiveServerProg(500))
	if !pc.HasFinding(consultant.HypSync, "/Machine/node") {
		t.Fatalf("no machine refinement:\n%s", pc.Render())
	}
	found := false
	for _, f := range pc.Findings() {
		if strings.Contains(f.FocusStr, "/Machine/") && strings.Contains(f.FocusStr, "main{") {
			found = true
		}
	}
	if !found {
		t.Errorf("no process-level finding:\n%s", pc.Render())
	}
}

func TestPCPruningRemovesInstrumentation(t *testing.T) {
	// After persistent-false pruning, the pruned foci's probes are deleted:
	// total active probes drop.
	cfg := consultant.DefaultConfig()
	cfg.PruneEvals = 3
	s, err := core.NewSession(core.Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Register("idle", func(r *mpi.Rank, _ []string) {
		r.IdleWait(30 * sim.Second)
	})
	if err := s.Launch("idle", 2, nil); err != nil {
		t.Fatal(err)
	}
	pc := consultant.New(s.FE, s.Eng, cfg)
	if err := pc.Start(); err != nil {
		t.Fatal(err)
	}
	var midProbes, endProbes int
	s.Eng.At(sim.Time(2*sim.Second), func() {
		for _, r := range s.World.Ranks() {
			midProbes += r.Probes().ActiveProbes()
		}
	})
	s.Eng.At(sim.Time(25*sim.Second), func() {
		for _, r := range s.World.Ranks() {
			endProbes += r.Probes().ActiveProbes()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if endProbes >= midProbes {
		t.Errorf("probes did not shrink after pruning: %d → %d", midProbes, endProbes)
	}
}

func TestPCConfigThresholdsRespected(t *testing.T) {
	// With an absurdly high sync threshold nothing tests true.
	cfg := consultant.DefaultConfig()
	cfg.SyncThreshold = 5
	cfg.CPUThreshold = 5
	cfg.IOThreshold = 5
	pc := runPC(t, mpi.LAM, 4, cfg, intensiveServerProg(200))
	if pc.HasFinding("", "") {
		t.Errorf("nothing should pass a threshold of 5:\n%s", pc.Render())
	}
}
