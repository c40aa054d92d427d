package core

import (
	"strings"
	"testing"
	"time"

	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/wire"
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

// A drop-transport clause fired after a respawn lands on the live
// incarnation's transport, in process and over TCP: node1's daemon is
// respawned at about 137 ms, and the three control-channel drops armed at
// 1 s are all consumed by its reports. Drops armed on the dead incarnation's
// transport would never be consumed, and a counter read off it would stay 0.
func TestDropTransportAfterRespawnReachesTheLiveIncarnation(t *testing.T) {
	for _, useTCP := range []bool{false, true} {
		t.Run(map[bool]string{false: "in-process", true: "tcp"}[useTCP], func(t *testing.T) {
			plan, err := faults.Parse("restarts=2; t=100ms crash-daemon node1 restartable; t=1s drop-transport node1 n=3")
			if err != nil {
				t.Fatal(err)
			}
			s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1, Faults: plan, UseTCP: useTCP})
			s.Register("pp", pingPong(300, 10*sim.Millisecond))
			s.MustEnable("msgs_sent", resource.WholeProgram())
			if err := s.Launch("pp", 2, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Eng.Now() <= sim.Time(sim.Second) {
				t.Fatalf("run ended at %v, before the drops at 1s", s.Eng.Now())
			}
			respawned := false
			for _, line := range s.Injector.Log() {
				at, what, _ := strings.Cut(line, " ")
				if strings.HasPrefix(what, "supervisor: respawned daemon on node1 (incarnation 2)") {
					d, err := time.ParseDuration(at)
					respawned = err == nil && d < time.Second
				}
			}
			if !respawned {
				t.Fatalf("no respawn of node1 as incarnation 2 before 1s in the fault log:\n%s", strings.Join(s.Injector.Log(), "\n"))
			}
			ws := s.WireStats()
			if got := ws[wire.ChanCtl].InjectedDrops; got != 3 {
				t.Errorf("ctl InjectedDrops = %d, want 3", got)
			}
			if got := ws[wire.ChanBulk].InjectedDrops; got != 0 {
				t.Errorf("bulk InjectedDrops = %d, want 0", got)
			}
			if got := s.FE.Coverage(); got != 1 {
				t.Errorf("coverage = %.2f, want 1.00", got)
			}
		})
	}
}
