package experiments

import (
	"fmt"
	"strings"

	"pperf/internal/core"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
	"pperf/internal/presta"
	"pperf/internal/sim"
)

func init() {
	register("fig21", fig21)
	register("fig22", fig22)
	register("fig23", fig23)
	register("fig24", fig24)
	register("presta", prestaExp)
}

// fig21 compares the winscpw-sync diagnosis under LAM and MPICH2: the MPI-2
// standard lets either Win_start or Win_complete block, and the two
// implementations chose differently.
func fig21(c *cells) *Result {
	r := &Result{ID: "fig21", Title: "PC output for winscpwsync (LAM vs MPICH2)", OK: true,
		Paper: "rank 0 CPU bound in waste_time; other ranks wait in MPI_Win_start (LAM) or MPI_Win_complete (MPICH2), on the identified window"}
	lam, m2 := c.get("winscpw-sync", mpi.LAM), c.get("winscpw-sync", mpi.MPICH2)
	r.judged(lam, m2)
	r.Measured = "LAM blocks in MPI_Win_start, MPICH2 in MPI_Win_complete; both pin the RMA window and rank 0's waste_time"
	r.Output = pcSideBySide(lam, m2)
	return r
}

// fig22 compares the Oned diagnosis: LAM's fence is a barrier.
func fig22(c *cells) *Result {
	r := &Result{ID: "fig22", Title: "PC output for Oned", OK: true,
		Paper: "sync → exchng1 → MPI_Win_fence; LAM additionally implicates /SyncObject/Barrier (fence is MPI_Barrier)"}
	lam, m2 := c.get("oned", mpi.LAM), c.get("oned", mpi.MPICH2)
	r.judged(lam, m2)
	r.ok(!hasSync(m2, "/SyncObject/Barrier"), "MPICH2 should not implicate Barrier")
	r.Measured = "both find exchng1→MPI_Win_fence; only LAM shows the Barrier sync object"
	r.Output = pcSideBySide(lam, m2)
	return r
}

// fig23 reproduces the resource hierarchy before/after a spawn operation,
// with MPI-2 object names.
func fig23(*cells) *Result {
	r := &Result{ID: "fig23", Title: "Resource hierarchy across MPI_Comm_spawn", OK: true,
		Paper: "three new processes appear; the parent+child window appears with its friendly name, also under Message (LAM stores window names in a communicator)"}
	o, prog, spec, err := pperfmark.SessionOptions("spawnwin-sync", pperfmark.RunOptions{Impl: mpi.LAM, Params: pperfmark.Params{Iterations: 40}})
	if err != nil {
		panic(err)
	}
	s, err := core.NewSession(o)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	s.Register("spawnwin-sync", prog)
	var before string
	s.Eng.At(sim.Time(10*sim.Millisecond), func() { before = s.FE.Hierarchy().Render() })
	if err := s.Launch("spawnwin-sync", spec.Params.Procs, nil); err != nil {
		panic(err)
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	after := s.FE.Hierarchy().Render()

	childCount := strings.Count(after, "spawnwinsync-child{")
	r.ok(childCount >= spec.Params.Children, "after-hierarchy has %d children, want %d", childCount, spec.Params.Children)
	r.ok(!strings.Contains(before, "spawnwinsync-child{"), "children present before spawn")
	r.ok(strings.Contains(after, "ParentChildWindow"), "window friendly name missing")
	r.ok(strings.Contains(after, "Parent&Child"), "intercommunicator friendly name missing")
	// The LAM quirk: the window name also labels a Message resource.
	msgSection := after[strings.Index(after, "Message"):]
	r.ok(strings.Contains(msgSection, "ParentChildWindow"), "window name missing under Message")
	r.Measured = fmt.Sprintf("%d spawned processes incorporated; friendly names displayed, window name visible under Message", childCount)
	r.Output = "--- before spawn ---\n" + before + "--- after spawn ---\n" + after
	return r
}

// fig24 covers the spawnsync and spawnwin-sync PC outputs.
func fig24(c *cells) *Result {
	r := &Result{ID: "fig24", Title: "PC output for spawnsync and spawnwinSync", OK: true,
		Paper: "children wait (message passing in childfunction / window fence); parent CPU bound in parentfunction"}
	ss, sw := c.get("spawnsync", mpi.LAM), c.get("spawnwin-sync", mpi.LAM)
	r.judged(ss, sw)
	r.Measured = "children's waits found (MPI_Recv / MPI_Win_fence with LAM's Isend/Waitall traffic); parent CPU bound"
	r.Output = "--- spawnsync ---\n" + ss.res.PC.Render() + "--- spawnwinSync ---\n" + sw.res.PC.Render()
	return r
}

// prestaExp reproduces the §5.2.1.3 Presta-vs-tool comparison.
func prestaExp(*cells) *Result {
	r := &Result{ID: "presta", Title: "Presta rma vs tool RMA metrics", OK: true,
		Paper: "op counts agree (except bidirectional Get); throughput/per-op differences ≤ ~0.6% and mostly not significant"}
	cfg := presta.Config{Bytes: 1024, OpsPerEpoch: 500, Epochs: 60}
	var b strings.Builder
	worstRel := 0.0
	for _, mode := range []presta.Mode{presta.UniPut, presta.UniGet, presta.BiPut, presta.BiGet} {
		cmp, err := presta.Compare(mpi.LAM, cfg, mode, 5)
		if err != nil {
			panic(err)
		}
		b.WriteString(cmp.Render())
		r.ok(!cmp.OpsDiff.Significant, "%s: op counts significantly differ", mode)
		rel := cmp.ThroughputDiff.RelDiff
		if rel < 0 {
			rel = -rel
		}
		if rel > worstRel {
			worstRel = rel
		}
	}
	r.ok(worstRel < 0.05, "worst throughput relative difference %.3f too large", worstRel)
	r.Measured = fmt.Sprintf("op counts agree in all four modes; worst throughput relative difference %.2f%%", worstRel*100)
	r.Output = b.String()
	return r
}
