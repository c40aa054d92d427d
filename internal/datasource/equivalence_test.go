package datasource_test

// The View's one test is the property the whole analysis plane rests on:
// whatever a live FrontEnd folds into its View, a ReplaySource fed the
// recorded stream folds into an identical one — at every read barrier, not
// just at the end — for every kind of event there is.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/frontend"
	"pperf/internal/mdl"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// captureSink is a session.Sink that keeps the stream in memory. It copies
// each batch: the caller owns ev.Samples and builds the next batch in it.
type captureSink struct{ events []session.Event }

func (c *captureSink) Record(ev session.Event) {
	ev.Samples = slices.Clone(ev.Samples)
	c.events = append(c.events, ev)
}
func (c *captureSink) SetHistogram(int, sim.Duration) {}
func (c *captureSink) SetMeta(string, string)         {}
func (c *captureSink) SetExtra([]byte)                {}
func (c *captureSink) count(k session.EventKind) (n int) {
	for i := range c.events {
		if c.events[i].Kind == k {
			n++
		}
	}
	return n
}

// snapshot renders everything the query plane can say about a View.
func snapshot(v *datasource.View, metrics []string) string {
	var b strings.Builder
	b.WriteString(v.Hierarchy().Render())
	procs, lost := v.Processes(), 0
	for _, p := range procs {
		if p.Lost {
			lost++
		}
	}
	fmt.Fprintf(&b, "procs=%d lost=%d coverage=%.4f degradation=%q\n",
		v.ProcessCount(), lost, v.Coverage(), v.DegradationSummary())
	for _, p := range procs {
		fmt.Fprintf(&b, "proc %+v\n", *p)
	}
	fmt.Fprintf(&b, "healthy daemons %v\n", v.SilentDaemons(sim.Time(1<<62), 0))
	fmt.Fprintf(&b, "gaps %+v overlap(0.3s,0.31s]=%v\n", v.UnmeasuredGaps(),
		v.GapOverlaps(sim.Time(300*sim.Millisecond), sim.Time(310*sim.Millisecond)))
	fmt.Fprintf(&b, "callees(main)=%v isCallee(MPI_Send)=%v isCallee(main)=%v\n",
		v.Callees("main"), v.IsCallee("MPI_Send"), v.IsCallee("main"))
	for _, m := range metrics {
		s := v.Series(m, resource.WholeProgram())
		if s == nil {
			fmt.Fprintf(&b, "series %s: none\n", m)
			continue
		}
		fmt.Fprintf(&b, "series %s total=%g last=%v procs=%v\n%s", m, s.Total(), s.LastSampleTime(), s.Procs(), v.ExportCSV(s))
		for _, p := range s.Procs() {
			h := s.ProcHistogram(p)
			fmt.Fprintf(&b, "  %s: total=%g bin %v filled %d\n", p, h.Total(), h.BinWidth(), h.NumFilled())
		}
	}
	fmt.Fprintf(&b, "counter tracks %+v\n", v.CounterTracks())
	if tl := v.Timeline(); tl == nil {
		b.WriteString("timeline: none\n")
	} else {
		fmt.Fprintf(&b, "timeline %+v spans=%d procs=%v lost=%d\n", tl.Stats(), len(tl.Spans()), tl.Procs(), tl.Lost())
	}
	return b.String()
}

func TestLiveAndReplayBuildTheSameView(t *testing.T) {
	const (
		d0 = "paradynd@node0"
		d1 = "paradynd@node1"
	)
	ms := func(n int) sim.Time { return sim.Time(sim.Duration(n) * sim.Millisecond) }
	whole := resource.WholeProgram()
	metrics := []string{"msgs_sent", "no_such_metric", "msg_bytes_sent"}

	sink := &captureSink{}
	var liveAtBarrier []string

	// step drives one public entry point of the live front end at a virtual
	// time, and names the one event the recorder must capture for it.
	type step struct {
		at   int // ms
		name string
		do   func(*frontend.FrontEnd)
		want session.Event
	}
	// report is a daemon report entering through the transport method.
	report := func(at int, name string, ev session.Event) step {
		return step{at, name, func(fe *frontend.FrontEnd) {
			if err := fe.Report(ev); err != nil {
				t.Errorf("live report %s: %v", name, err)
			}
		}, ev}
	}
	update := func(at int, name string, u datasource.Update) step {
		u.Time = ms(at)
		return report(at, name, session.Event{Kind: session.EvUpdate, Update: u})
	}
	samples := func(at int, batch ...datasource.Sample) step {
		return report(at, "samples", session.Event{Kind: session.EvSamples, Samples: batch})
	}
	sample := func(metric, proc string, at int, delta float64) datasource.Sample {
		return datasource.Sample{Metric: metric, Focus: whole, Proc: proc, Time: ms(at), Delta: delta, Value: delta}
	}
	enable := func(at int, metric, wantErr string) step {
		return step{at, "enable " + metric, func(fe *frontend.FrontEnd) {
			_, err := fe.EnableMetric(metric, whole)
			if (wantErr == "") != (err == nil) || (err != nil && err.Error() != wantErr) {
				t.Errorf("live enable %s: err = %v, want %q", metric, err, wantErr)
			}
		}, session.Event{Kind: session.EvEnable, Metric: metric, Focus: whole, Err: wantErr}}
	}
	barrier := func(at int, name string) step {
		return step{at, name, func(fe *frontend.FrontEnd) {
			fe.Sync()
			liveAtBarrier = append(liveAtBarrier, snapshot(fe.View, metrics))
		}, session.Event{Kind: session.EvBarrier}}
	}
	shard := trace.Shard{Daemon: d0, Proc: "p0", Node: "node0", Dropped: 2, OutboxLost: 1, Spans: []trace.Span{
		{Seq: 1, Kind: trace.MPISpan, Proc: "p0", Node: "node0", Name: "MPI_Send", Start: ms(10), End: ms(20)},
		{Seq: 2, Kind: trace.MPISpan, Proc: "p0", Node: "node0", Name: "MPI_Recv", Start: ms(30), End: ms(45)},
	}}

	// Step times avoid the 100 ms liveness grid so ordering is unambiguous.
	steps := []step{
		enable(1, "msgs_sent", ""),
		enable(2, "no_such_metric", `daemon: unknown metric "no_such_metric"`),
		update(5, "add p0", datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p0", Display: "rank 0", Daemon: d0}),
		update(6, "add p1", datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node1/p1", Daemon: d1}),
		update(7, "add p2", datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p2", Daemon: d0}),
		update(8, "add comm", datasource.Update{Kind: datasource.UpAddResource, Path: "/SyncObject/Message/comm-1"}),
		update(9, "name comm", datasource.Update{Kind: datasource.UpSetName, Path: "/SyncObject/Message/comm-1", Display: "WORLD"}),
		update(10, "call edge", datasource.Update{Kind: datasource.UpCallEdge, Caller: "main", Callee: "MPI_Send"}),
		samples(55, sample("msgs_sent", "p0", 50, 3), sample("msgs_sent", "p1", 50, 4),
			sample("msg_bytes_sent", "p0", 50, 99)), // never enabled: skipped in both modes
		report(60, "shard", session.Event{Kind: session.EvShard, Shard: shard}),
		samples(150, sample("msgs_sent", "p0", 150, 5), sample("msgs_sent", "p1", 150, 6)),
		update(210, "heartbeat node0", datasource.Update{Kind: datasource.UpHeartbeat, Daemon: d0}),
		barrier(250, "barrier"),
		update(260, "retire comm", datasource.Update{Kind: datasource.UpRetire, Path: "/SyncObject/Message/comm-1"}),
		// The 300 ms liveness tick finds node1 silent since its pre-seed:
		// stale verdict, supervisor backoff, respawn, gap. None of that
		// enters through a step.
		barrier(350, "barrier while node1 is down"),
		update(410, "heartbeat node0", datasource.Update{Kind: datasource.UpHeartbeat, Daemon: d0}),
		update(420, "p2 lost", datasource.Update{Kind: datasource.UpProcessLost, Proc: "p2", Path: "/Machine/node0/p2", Daemon: d0}),
		barrier(450, "barrier after the gap"),
		update(510, "heartbeat node1: recovery", datasource.Update{Kind: datasource.UpHeartbeat, Daemon: d1}),
		samples(520, sample("msgs_sent", "p1", 520, 7)),
		update(610, "heartbeat node0", datasource.Update{Kind: datasource.UpHeartbeat, Daemon: d0}),
		update(620, "p0 exits", datasource.Update{Kind: datasource.UpProcessExit, Proc: "p0", Path: "/Machine/node0/p0", Daemon: d0}),
		barrier(650, "barrier after recovery"),
		// The tail past the last barrier: what Drain applies.
		{660, "undelivered", func(fe *frontend.FrontEnd) { fe.NoteUndelivered("p0", 3) },
			session.Event{Kind: session.EvUndelivered, Proc: "p0", N: 3}},
		samples(670, sample("msgs_sent", "p1", 670, 1)),
	}

	// --- live ---------------------------------------------------------------
	eng := sim.NewEngine(1)
	fe := frontend.New()
	fe.SetRecorder(sink)
	lib := mdl.StdLib()
	roster := &daemon.Registry{}
	for node, name := range []string{"node0", "node1"} {
		roster.Replace(daemon.New(eng, node, name, lib, fe, daemon.DefaultConfig()))
	}
	fe.SetDaemons(roster)
	frontend.NewSupervisor(fe, eng, 1, 7,
		func(node string, incarnation int) (*daemon.Daemon, error) {
			d := daemon.New(eng, 1, node, lib, fe, daemon.DefaultConfig())
			d.SetIncarnation(incarnation)
			roster.Replace(d)
			return d, nil
		}, nil)
	fe.StartLiveness(eng, 100*sim.Millisecond, 250*sim.Millisecond)
	for _, st := range steps {
		eng.At(ms(st.at), func() {
			before := len(sink.events)
			st.do(fe)
			if got := sink.events[before:]; !reflect.DeepEqual(got, []session.Event{st.want}) {
				t.Errorf("step %q at %d ms recorded %+v, want exactly %+v", st.name, st.at, got, st.want)
			}
		})
	}
	eng.StartProc("clock", func(p *sim.Proc) { p.Sleep(700 * sim.Millisecond) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	live := snapshot(fe.View, metrics)

	// Beyond the steps the stream holds exactly: two liveness pre-seed
	// heartbeats, one stale verdict and one gap.
	if got, want := len(sink.events), len(steps)+4; got != want {
		t.Fatalf("recorded %d events, want %d (steps + 2 pre-seeds + stale + gap)", got, want)
	}
	for k := session.EvSamples; k <= session.EvGap; k++ {
		if sink.count(k) == 0 {
			t.Errorf("stream holds no %v event; the equivalence below would not cover it", k)
		}
	}
	for i := range sink.events {
		switch ev := &sink.events[i]; ev.Kind {
		case session.EvStale:
			if ev.Daemon != d1 || ev.Time != ms(300) || sink.count(session.EvStale) != 1 {
				t.Errorf("stale verdict %+v, want exactly one for %s at 300 ms", *ev, d1)
			}
		case session.EvGap:
			if g := ev.Gap; g.Node != "node1" || g.From != ms(300) || g.To <= g.From || g.To >= ms(350) || sink.count(session.EvGap) != 1 {
				t.Errorf("gap %+v, want exactly one on node1 opening at 300 ms and closed before the 350 ms barrier", g)
			}
		}
	}
	if !strings.Contains(liveAtBarrier[1], "stale since") || strings.Contains(live, "p1@node1 (stale since") {
		t.Errorf("scenario lost its teeth: node1 should be lost at barrier 2 and recovered by the end\nbarrier 2:\n%s\nend:\n%s", liveAtBarrier[1], live)
	}

	// --- replay -------------------------------------------------------------
	rs := session.NewReplaySource(&session.Archive{
		Header: session.Header{Version: session.Version, NumEvents: len(sink.events)},
		Events: sink.events,
	})
	for _, st := range steps {
		if w := st.want; w.Kind == session.EvEnable {
			_, err := rs.EnableMetric(w.Metric, w.Focus)
			if (w.Err == "") != (err == nil) || (err != nil && err.Error() != w.Err) {
				t.Errorf("replayed %s: err = %v, want %q", st.name, err, w.Err)
			}
		}
	}
	for k, want := range liveAtBarrier {
		rs.Sync()
		if got := snapshot(rs.View, metrics); got != want {
			t.Errorf("read barrier %d: replay sees\n%s\nlive saw\n%s", k+1, got, want)
		}
	}
	rs.Drain()
	if got := snapshot(rs.View, metrics); got != live {
		t.Errorf("after drain: replay\n%s\nlive\n%s", got, live)
	}
}

// TestTimelineCreatedOnceUnderConcurrentShards: TCP listener goroutines
// merge shards into the View concurrently, and the first of them creates
// the timeline. Every shard must land in the one timeline readers see.
func TestTimelineCreatedOnceUnderConcurrentShards(t *testing.T) {
	v := datasource.NewView()
	if v.Timeline() != nil {
		t.Fatal("fresh view already has a timeline")
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			proc := fmt.Sprintf("p%d", w)
			for i := 0; i < each; i++ {
				v.ApplyShard(trace.Shard{Proc: proc, Node: "node0", Spans: []trace.Span{{Seq: uint64(w*each + i + 1), Proc: proc}}})
				v.ApplyUndelivered(proc, int64(i))
				v.EnableTrace()
				_ = v.Timeline().Stats()
			}
		}(w)
	}
	wg.Wait()
	tl := v.Timeline()
	if got := tl.Stats().Shards; got != writers*each {
		t.Errorf("timeline holds %d shards, want %d (a second timeline swallowed the rest?)", got, writers*each)
	}
	if got := tl.Stats().Undelivered; got != writers*(each-1) {
		t.Errorf("undelivered = %d, want %d", got, writers*(each-1))
	}
}
