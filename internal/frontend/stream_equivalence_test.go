package frontend

// One report stream, three transports. A real daemon over a real world runs
// one script — samples, updates, heartbeats, trace shards, with two sends
// failed on ctl and two on bulk along the way — into a front end reached in
// process, through the fault wrapper, and over TCP. What the front end
// records must not depend on which: the transports differ in how a report
// travels (a call, a queue and a replay, frames and retries), never in what
// arrives or in what order.

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// captureSink is a session.Sink that keeps the stream in memory. Over TCP
// it is fed from the listener's goroutines, hence the lock. It copies each
// batch: the caller owns ev.Samples and builds the next batch in it.
type captureSink struct {
	mu     sync.Mutex
	events []session.Event
}

func (c *captureSink) Record(ev session.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev.Samples = slices.Clone(ev.Samples)
	c.events = append(c.events, ev)
}
func (c *captureSink) SetHistogram(int, sim.Duration) {}
func (c *captureSink) SetMeta(string, string)         {}
func (c *captureSink) SetExtra([]byte)                {}
func (c *captureSink) EventCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func TestReportStreamIdenticalAcrossTransports(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(sim.Duration(n) * sim.Millisecond) }

	// run plays the script over the transport mk builds; inj is its
	// injection surface (nil in process, where nothing can fail).
	run := func(t *testing.T, mk func(fe *FrontEnd, name string) (daemon.Transport, faults.Injectable)) []session.Event {
		eng := sim.NewEngine(13)
		spec := cluster.DefaultSpec(1, 2)
		node := spec.Nodes[0].Name
		w := mpi.NewWorld(eng, spec, mpi.NewImpl(mpi.LAM))
		fe := New()
		sink := &captureSink{}
		fe.SetRecorder(sink)
		tr, inj := mk(fe, daemon.NameFor(node))
		drop := func(ch string) {
			if inj != nil {
				inj.Injection(ch).AddDrops(2)
			}
		}
		cfg := daemon.DefaultConfig()
		cfg.Heartbeat = 50 * sim.Millisecond
		d := daemon.New(eng, 0, node, mdl.StdLib(), tr, cfg)
		fe.SetDaemons(daemon.AttachAll(w, []*daemon.Daemon{d}))
		w.Register("pp", func(r *mpi.Rank, _ []string) {
			c := r.World()
			for i := 0; i < 40; i++ {
				if r.Rank() == 0 {
					r.Call("app.c", "produce", func() { r.Compute(20 * sim.Millisecond) })
					c.Send(r, nil, 1, mpi.Byte, 1, 0)
				} else {
					c.Recv(r, nil, 1, mpi.Byte, 0, 0)
				}
			}
		})
		if _, err := w.LaunchN("pp", 2, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := fe.EnableMetric("msgs_sent", resource.WholeProgram()); err != nil {
			t.Fatal(err)
		}
		d.Start()

		// Act one, untraced: the heartbeat at 150 ms and its replay at 200 ms
		// fail; the 200 ms tick's samples and heartbeat queue behind it and
		// everything replays, in order, at 250 ms.
		eng.At(ms(120), func() { drop(wire.ChanCtl) })

		// Act two, traced: script-made spans reach the watermark and ship.
		// The first shard after the bulk drops fails, waits in the bulk queue
		// and is replayed by the flush — inside one instant, so no ctl
		// report can overtake it.
		tracer := trace.New(&trace.Config{FlushWatermark: 4})
		mark := func(n int) {
			for i := 0; i < n; i++ {
				tracer.Transport("script", node, "m", eng.Now())
			}
		}
		eng.At(ms(420), func() { d.EnableTracing(tracer); mark(4) })
		eng.At(ms(510), func() { drop(wire.ChanBulk); mark(4); mark(2); d.FlushTrace() })
		eng.At(ms(630), func() { mark(5) })

		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		d.FlushTrace()
		if inj != nil {
			for _, ch := range []string{wire.ChanCtl, wire.ChanBulk} {
				if got := inj.Injection(ch).Dropped(); got != 2 {
					t.Errorf("%s: %d sends failed, want the 2 armed", ch, got)
				}
			}
		}
		if st := d.Stats(); st.Ctl.Queued != 0 || st.Ctl.Evicted != 0 || st.Bulk.Queued != 0 || len(st.LostSpans) != 0 {
			t.Errorf("daemon left reports behind: ctl %+v, bulk %+v, lost %v", st.Ctl, st.Bulk, st.LostSpans)
		}
		return sink.events
	}

	inProcess := run(t, func(fe *FrontEnd, _ string) (daemon.Transport, faults.Injectable) { return fe, nil })
	flaky := run(t, func(fe *FrontEnd, _ string) (daemon.Transport, faults.Injectable) {
		ft := faults.NewFlakyTransport(fe)
		return ft, ft
	})
	tcp := run(t, func(fe *FrontEnd, name string) (daemon.Transport, faults.Injectable) {
		l, err := fe.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		tr, err := DialTransportRetry(l.Addr(), name, 1, testRetryConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr, tr
	})

	kinds := map[session.EventKind]int{}
	heartbeats := 0
	for _, ev := range inProcess {
		kinds[ev.Kind]++
		if ev.Kind == session.EvUpdate && ev.Update.Kind == datasource.UpHeartbeat {
			heartbeats++
		}
	}
	if kinds[session.EvSamples] == 0 || kinds[session.EvUpdate] == heartbeats || heartbeats == 0 || kinds[session.EvShard] < 4 {
		t.Fatalf("script lost its teeth: %v, %d heartbeats", kinds, heartbeats)
	}
	for name, got := range map[string][]session.Event{"flaky": flaky, "tcp": tcp} {
		if reflect.DeepEqual(got, inProcess) {
			continue
		}
		t.Errorf("%s recorded a different stream than in-process (%d vs %d events)", name, len(got), len(inProcess))
		for i := 0; i < len(got) && i < len(inProcess); i++ {
			if !reflect.DeepEqual(got[i], inProcess[i]) {
				t.Errorf("first difference at event %d:\n%s: %+v\nin-process: %+v", i, name, got[i], inProcess[i])
				break
			}
		}
	}
}
