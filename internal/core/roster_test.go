package core

import (
	"strings"
	"testing"

	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// captureTransport keeps the resource updates a daemon ships instead of
// delivering them, so what a daemon reported is visible apart from what the
// front end learned.
type captureTransport struct{ updates []datasource.Update }

func (c *captureTransport) Report(ev session.Event) error {
	if ev.Kind == session.EvUpdate {
		c.updates = append(c.updates, ev.Update)
	}
	return nil
}

// One Replace on the roster re-points every reader: the world's discovery
// hooks, the front end's enable fan-out and the fault hooks all reach the
// new incarnation, and none of them the displaced one.
func TestRosterReplaceReroutesEverything(t *testing.T) {
	plan, err := faults.Parse("t=300ms crash-daemon node1")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1, Faults: plan})
	old := s.daemons.Named("node1")
	seen := &captureTransport{}
	neu := daemon.New(s.Eng, old.Node(), "node1", s.Lib, seen, s.dcfg)
	s.daemons.Replace(neu)
	if s.daemons.Named("node1") != neu || s.daemons.At(1) != neu || len(s.daemons.All()) != 2 || s.daemons.All()[1] != neu {
		t.Fatalf("roster after Replace: Named %p At %p All %v, want %p in node1's place", s.daemons.Named("node1"), s.daemons.At(1), s.daemons.All(), neu)
	}

	// Rank 1 (node1) reaches the dup first, so node1's daemon gets the
	// CommCreated hook for the new communicator.
	s.Register("dup", func(r *mpi.Rank, _ []string) {
		if r.Rank() == 0 {
			r.Compute(50 * sim.Millisecond)
		}
		if _, err := r.World().Dup(r); err != nil {
			t.Error(err)
		}
		r.Compute(400 * sim.Millisecond)
	})
	if err := s.Launch("dup", 2, nil); err != nil {
		t.Fatal(err)
	}
	s.MustEnable("msgs_sent", resource.WholeProgram())
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	if n, o := neu.Stats().Processes, old.Stats().Processes; n != 1 || o != 0 {
		t.Errorf("ProcessStarted hook: new incarnation adopted %d, old %d; want 1 and 0", n, o)
	}
	dupPath := ""
	for _, u := range seen.updates {
		if u.Kind == datasource.UpAddResource && strings.HasSuffix(u.Display, "(dup)") {
			dupPath = u.Path
		}
	}
	if dupPath == "" {
		t.Errorf("CommCreated hook never reached the new incarnation: %+v", seen.updates)
	} else if s.FE.Hierarchy().FindPath(dupPath) != nil {
		t.Errorf("%s reached the front end, which only the old incarnation reports to", dupPath)
	}
	if n, o := neu.Stats().Enabled, old.Stats().Enabled; n != 1 || o != 0 {
		t.Errorf("EnableMetric: new incarnation holds %d pairs, old %d; want 1 and 0", n, o)
	}
	if !neu.Crashed() || old.Crashed() {
		t.Errorf("crash-daemon hook: new crashed=%v old crashed=%v; want true and false", neu.Crashed(), old.Crashed())
	}
}
