package core

import (
	"testing"

	"pperf/internal/faults"
	"pperf/internal/gprofsim"
	"pperf/internal/mpi"
	"pperf/internal/sim"
)

// Function discovery has any number of listeners: with a profiler attached
// to the session's world, the daemons still hear of every function (the Code
// hierarchy) and so does the profiler — for a function first called before
// node1's daemon crashes and for one first called after the supervisor
// respawned it. The process's single OnFirstCall slot used to go to whoever
// set it last, which left /Code bare.
func TestFunctionDiscoveryReachesDaemonAndProfiler(t *testing.T) {
	plan, err := faults.Parse("restarts=2; t=300ms crash-daemon node1 restartable")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1, Faults: plan})
	prof := gprofsim.Attach(s.World)
	s.Register("x", func(r *mpi.Rank, _ []string) {
		r.Call("x.c", "early", func() { r.Compute(100 * sim.Millisecond) })
		r.Compute(3 * sim.Second)
		r.Call("x.c", "late", func() { r.Compute(100 * sim.Millisecond) })
		r.World().Barrier(r)
	})
	if err := s.Launch("x", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.FE.Supervisor().Stats()["node1"].Incarnation; got != 2 {
		t.Fatalf("node1's daemon is incarnation %d, want 2: the respawn this test is about did not happen", got)
	}
	h := s.FE.Hierarchy()
	calls := map[string]int64{}
	for _, f := range prof.Snapshot().Funcs {
		calls[f.Name] = f.Calls
	}
	for _, fn := range []string{"early", "late", "MPI_Barrier"} {
		module := "x.c"
		if fn == "MPI_Barrier" {
			module = "liblammpi.so"
		}
		if h.FindPath("/Code/"+module+"/"+fn) == nil {
			t.Errorf("/Code/%s/%s missing: the daemons never heard of %s\n%s", module, fn, fn, h.Render())
		}
		if calls[fn] != 2 {
			t.Errorf("profiler counted %d calls of %s, want 2 (one per rank)", calls[fn], fn)
		}
	}
}
