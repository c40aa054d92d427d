package frontend_test

// Supervisor unit test for the hardest path: the respawned daemon dies
// during the state-resynchronization protocol. The supervisor must treat
// the attempt as failed, re-enter backoff, and resynchronize a BRAND-NEW
// incarnation — never re-enabling onto the dead one (the double-enable
// hazard) and never losing the outage's starting point for the gap.

import (
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/daemon"
	"pperf/internal/frontend"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

func TestSupervisorRetriesAfterResyncFailure(t *testing.T) {
	eng := sim.NewEngine(11)
	spec := cluster.DefaultSpec(2, 1)
	w := mpi.NewWorld(eng, spec, mpi.NewImpl(mpi.LAM))
	fe := frontend.New()
	lib := mdl.StdLib()
	var ds []*daemon.Daemon
	for node := range spec.Nodes {
		ds = append(ds, daemon.New(eng, node, spec.Nodes[node].Name, lib, fe, daemon.DefaultConfig()))
	}
	roster := daemon.AttachAll(w, daemon.SpawnIntercept, ds...)
	fe.SetDaemons(roster)
	w.Register("busy", func(r *mpi.Rank, _ []string) {
		r.Compute(2 * sim.Second)
	})
	if _, err := w.LaunchN("busy", 2, nil); err != nil {
		t.Fatal(err)
	}
	focus := resource.WholeProgram()
	if _, err := fe.EnableMetric("msgs_sent", focus); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		d.Start()
	}

	// Respawn script: the first incarnation comes back already dead (resync
	// must fail), the second is healthy.
	node1 := spec.Nodes[1].Name
	var spawned []*daemon.Daemon
	respawn := func(node string, incarnation int) (*daemon.Daemon, error) {
		d := daemon.New(eng, 1, node, lib, fe, daemon.DefaultConfig())
		d.SetIncarnation(incarnation)
		if len(spawned) == 0 {
			d.Crash()
		}
		spawned = append(spawned, d)
		roster.Replace(d)
		return d, nil
	}
	sv := frontend.NewSupervisor(fe, eng, 2, 7, respawn, nil)

	crashAt := sim.Time(100 * sim.Millisecond)
	eng.After(100*sim.Millisecond, func() {
		ds[1].Crash()
		sv.NoteDown(node1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	if len(spawned) != 2 {
		t.Fatalf("respawn attempts = %d, want 2", len(spawned))
	}
	if got := sv.Stats()[node1]; got != (frontend.NodeStats{Incarnation: 3, Restarts: 2}) {
		t.Errorf("node1 %+v, want incarnation 3 after 2 restarts and no quarantine after a successful recovery", got)
	}
	// The dead incarnation was never enabled onto; the healthy one got the
	// active set exactly once.
	if got := spawned[0].Stats().Enabled; got != 0 {
		t.Errorf("dead incarnation holds %d enables, want 0", got)
	}
	if got := spawned[1].Stats().Enabled; got != 1 {
		t.Errorf("healthy incarnation holds %d enables, want 1 (double-enable?)", got)
	}
	// One gap, spanning the WHOLE outage: From is the first detection, not
	// the last retry.
	gaps := fe.UnmeasuredGaps()
	if len(gaps) != 1 {
		t.Fatalf("gaps = %+v, want exactly 1", gaps)
	}
	if gaps[0].Node != node1 || gaps[0].From != crashAt || gaps[0].To <= gaps[0].From {
		t.Errorf("gap = %+v, want Node %s, From %v, To after From", gaps[0], node1, crashAt)
	}
}
