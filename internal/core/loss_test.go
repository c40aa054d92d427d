package core

// Span-loss conservation: whatever a fault plan does to the bulk channel, the
// timeline's three loss counters end equal to what the tracer's recorders and
// the live daemons counted — the fold in flushTrace covers the shards a bulk
// channel still down at exit strands — and a replay of the recording ends with
// the same counters.

import (
	"fmt"
	"slices"
	"testing"

	"pperf/internal/daemon"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// archiveSink records a session's event stream in memory.
type archiveSink struct{ events []session.Event }

func (a *archiveSink) Record(ev session.Event) {
	ev.Samples = slices.Clone(ev.Samples) // the caller builds its next batch in it
	if ev.Shard != nil {
		sh := *ev.Shard // and its next shard in the same Shard
		ev.Shard = &sh
	}
	a.events = append(a.events, ev)
}
func (*archiveSink) SetHistogram(int, sim.Duration) {}
func (*archiveSink) SetMeta(string, string)         {}

func TestSpanLossIsConserved(t *testing.T) {
	const lossy = "t=5ms drop-transport node0 n=6 chan=bulk; t=20ms hang-daemon node1 for=100ms; "
	for _, cell := range []struct {
		name, plan string
		strands    bool // the bulk channel is still down at exit
	}{
		{"healthy", "", false},
		{"bulk down at exit", lossy + "t=150ms drop-transport node0 n=3000 chan=bulk", true},
		{"bulk back before exit", lossy + "t=150ms drop-transport node0 n=4 chan=bulk", false},
		{"restarts=2", "restarts=2; " + lossy + "t=150ms crash-daemon node1 restartable", false},
	} {
		for _, useTCP := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tcp=%v", cell.name, useTCP), func(t *testing.T) {
				var plan *faults.Plan
				if cell.plan != "" {
					var err error
					if plan, err = faults.Parse(cell.plan); err != nil {
						t.Fatal(err)
					}
				}
				dcfg := daemon.DefaultConfig()
				dcfg.SampleInterval = 50 * sim.Millisecond
				rec := &archiveSink{}
				s := newTestSession(t, Options{
					Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1, Seed: 7,
					Daemon: &dcfg, BinWidth: 50 * sim.Millisecond,
					UseTCP: useTCP, Faults: plan, Recorder: rec,
					Trace: &trace.Config{RingCapacity: 32, FlushWatermark: 4},
				})
				s.Register("pp", pingPong(3000, 100*sim.Microsecond))
				if err := s.Launch("pp", 2, nil); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}

				got := s.FE.Timeline().Stats()
				want := trace.Stats{Shards: got.Shards}
				for _, r := range s.Tracer.Recorders("") {
					want.Dropped += r.Dropped()
				}
				for _, d := range s.daemons.All() {
					st := d.Stats()
					for _, n := range st.LostSpans {
						want.OutboxLost += n
					}
					for _, n := range st.Undelivered {
						want.Undelivered += n
					}
				}
				if got != want {
					t.Errorf("timeline counts %+v, recorders and daemons %+v", got, want)
				}
				if stranded := want.Undelivered > 0; stranded != cell.strands || stranded && want.OutboxLost == 0 {
					t.Errorf("the plan lost %d spans to the bulk queue and stranded %d at exit", want.OutboxLost, want.Undelivered)
				}

				rs := session.NewReplaySource(&session.Archive{Events: rec.events})
				rs.Drain()
				if replayed := rs.Timeline().Stats(); replayed != got {
					t.Errorf("replay counts %+v, live %+v", replayed, got)
				}
			})
		}
	}
}
