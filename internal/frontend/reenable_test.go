package frontend_test

// Regression test for the silent re-enable: DisableMetric leaves the series
// registered (it stays queryable), and EnableMetric used to take "the series
// is registered" to mean "the pair is on", so Enable → Disable → Enable
// returned the series with no daemon instrumented and nothing ever arrived
// again. "Already on" is membership in the active set.

import (
	"slices"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/daemon"
	"pperf/internal/frontend"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// eventSink is a session.Sink that keeps the stream in memory.
type eventSink struct{ events []session.Event }

func (s *eventSink) Record(ev session.Event) {
	ev.Samples = slices.Clone(ev.Samples) // the caller builds its next batch in it
	if ev.Shard != nil {
		sh := *ev.Shard // and its next shard in the same Shard
		ev.Shard = &sh
	}
	s.events = append(s.events, ev)
}
func (s *eventSink) SetHistogram(int, sim.Duration) {}
func (s *eventSink) SetMeta(string, string)         {}

func TestReEnableAfterDisableCollectsAgain(t *testing.T) {
	limited, err := mdl.CompileSource(limitedMDL)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(13)
	spec := cluster.DefaultSpec(2, 1)
	w := mpi.NewWorld(eng, spec, mpi.NewImpl(mpi.LAM))
	fe := frontend.New()
	sink := &eventSink{}
	fe.SetRecorder(sink)
	var ds []*daemon.Daemon
	for node := range spec.Nodes {
		ds = append(ds, daemon.New(eng, node, spec.Nodes[node].Name, mdl.StdLib(), fe, daemon.DefaultConfig()))
	}
	roster := daemon.AttachAll(w, daemon.SpawnIntercept, ds...)
	fe.SetDaemons(roster)
	w.Register("p", func(r *mpi.Rank, _ []string) {
		c := r.World()
		for r.Now() < sim.Time(9*sim.Second) {
			if r.Rank() == 0 {
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 1, mpi.Byte, 0, 0)
			}
			r.Compute(50 * sim.Millisecond)
		}
	})
	if _, err := w.LaunchN("p", 2, nil); err != nil {
		t.Fatal(err)
	}

	// Both spellings of the whole program, to show the active-set test is a
	// comparison of canonical pairs.
	whole, zero := resource.WholeProgram(), resource.Focus{}
	series, err := fe.EnableMetric("msgs_sent", whole)
	if err != nil {
		t.Fatal(err)
	}
	var totals []float64 // at each read barrier
	read := func() float64 {
		fe.Sync()
		totals = append(totals, series.Total())
		return series.Total()
	}
	at := func(sec int, fn func()) { eng.At(sim.Time(sim.Duration(sec)*sim.Second), fn) }
	at(2, func() {
		if read() == 0 {
			t.Error("nothing collected while enabled")
		}
		fe.DisableMetric("msgs_sent", zero)
	})
	at(4, func() {
		if read() != totals[0] {
			t.Errorf("collected %v while disabled", totals[1]-totals[0])
		}
		if s, err := fe.EnableMetric("msgs_sent", zero); s != series || err != nil {
			t.Errorf("re-enable: series %p err %v, want the original series %p", s, err, series)
		}
		if ds[0].Stats().Enabled != 1 || ds[1].Stats().Enabled != 1 {
			t.Errorf("re-enable instrumented %d and %d daemons' pairs, want 1 each", ds[0].Stats().Enabled, ds[1].Stats().Enabled)
		}
		// Enabling what is on stays a no-op: no second instrumentation.
		fe.EnableMetric("msgs_sent", whole)
		if ds[0].Stats().Enabled != 1 {
			t.Errorf("enabling an active pair instrumented again (%d enables)", ds[0].Stats().Enabled)
		}
	})
	at(6, func() {
		if read() <= totals[1] {
			t.Errorf("re-enabled pair collected nothing: %v after, %v before", totals[2], totals[1])
		}
		fe.DisableMetric("msgs_sent", whole)
		// A re-enable that fails — node1's daemon is now one whose library
		// lacks the metric — rolls node0 back and keeps the series.
		roster.Replace(daemon.New(eng, 1, spec.Nodes[1].Name, limited, fe, daemon.DefaultConfig()))
		if _, err := fe.EnableMetric("msgs_sent", whole); err == nil {
			t.Error("re-enable should fail: node1's library lacks msgs_sent")
		}
		if ds[0].Stats().Enabled != 0 {
			t.Errorf("failed re-enable left %d enables on node0", ds[0].Stats().Enabled)
		}
		if fe.Series("msgs_sent", whole) != series {
			t.Error("failed re-enable dropped a series that has history")
		}
	})
	at(8, func() {
		if read() != totals[2] {
			t.Errorf("collected %v after the failed re-enable", totals[3]-totals[2])
		}
	})
	for _, d := range ds {
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(totals) != 4 {
		t.Fatalf("%d of 4 read barriers ran", len(totals))
	}

	// The same sequence through record + replay: every read barrier sees
	// the total the live one saw, and the final series is identical.
	rs := session.NewReplaySource(&session.Archive{Events: sink.events})
	replayed, err := rs.EnableMetric("msgs_sent", whole)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range totals {
		rs.Sync()
		if again, err := rs.EnableMetric("msgs_sent", zero); again != replayed || err != nil {
			t.Errorf("replayed re-enable: series %p err %v", again, err)
		}
		if got := replayed.Total(); got != want {
			t.Errorf("read barrier %d: replay total %v, live %v", k+1, got, want)
		}
	}
	rs.Drain()
	if live, replay := fe.ExportCSV(series), rs.ExportCSV(replayed); live != replay {
		t.Errorf("replayed series differs from the live one:\n%s\nlive:\n%s", replay, live)
	}
}
