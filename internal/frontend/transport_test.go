package frontend

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// testRetryConfig keeps wall-clock waits negligible in tests.
func testRetryConfig() wire.Config {
	return wire.Config{
		MsgTimeout:  500 * time.Millisecond,
		MaxAttempts: 4,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        42,
	}
}

func TestTCPTransportDeliversThroughInjectedFailures(t *testing.T) {
	fe := New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tr, err := DialTransportRetry(l.Addr(), "paradynd@node0", 0, testRetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tr.Injection(wire.ChanCtl).AddDrops(2)
	if err := tr.Report(update(datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p0", Time: 1})); err != nil {
		t.Fatalf("update after injected failures: %v", err)
	}
	if err := tr.Report(update(datasource.Update{Kind: datasource.UpCallEdge, Caller: "a", Callee: "b"})); err != nil {
		t.Fatal(err)
	}

	if fe.Hierarchy().FindPath("/Machine/node0/p0") == nil {
		t.Error("update not applied")
	}
	if !fe.IsCallee("b") {
		t.Error("second update not applied")
	}
	st := tr.Stats(wire.ChanCtl)
	if st.Frames != 2 || st.Retries < 2 || st.Failures != 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Backoffs) < 2 {
		t.Errorf("backoffs not recorded: %+v", st.Backoffs)
	}
}

func TestTCPTransportGivesUpAfterMaxAttempts(t *testing.T) {
	fe := New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	cfg := testRetryConfig()
	cfg.MaxAttempts = 2
	tr, err := DialTransportRetry(l.Addr(), "paradynd@node0", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tr.Injection(wire.ChanCtl).AddDrops(cfg.MaxAttempts)
	if err := tr.Report(update(datasource.Update{Kind: datasource.UpHeartbeat})); err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	if st := tr.Stats(wire.ChanCtl); st.Failures != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The failure budget is drained; the next send succeeds again
	// (outbox-replay scenario).
	if err := tr.Report(update(datasource.Update{Kind: datasource.UpHeartbeat})); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
}

// sealed returns envelope f carrying ev as the transport puts it on the
// wire: in its packed form.
func sealed(f frame, ev session.Event) frame {
	f.Kind, f.Packed = ev.Kind, new(channel).pack(ev)
	return f
}

func TestListenerDedupesReplayedFrames(t *testing.T) {
	fe := New()
	f := resource.WholeProgram()
	fe.RegisterSeries("m", f)
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	msg := sealed(frame{Daemon: "paradynd@node0", Seq: 1}, samples(sample("m", f, "p0", sim.Time(sim.Second), 5)))
	var ack bool
	// A daemon that lost the ack re-sends the same frame after reconnecting;
	// the listener must ack it again without re-applying.
	for i := 0; i < 2; i++ {
		if err := enc.Encode(&msg); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	if got := fe.Series("m", f).Total(); got != 5 {
		t.Errorf("total = %v, want 5 (replay applied twice?)", got)
	}
	if got := l.WireStats(wire.ChanCtl).Duplicates; got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
}

// A channel holds one frame, built and packed under the channel's send lock.
// Reports from several goroutines at once — each building its next batch in
// the array it just reported, as a daemon does — all arrive, each with the
// samples it carried when Report was called.
func TestConcurrentReportsShareTheChannelFrame(t *testing.T) {
	fe := New()
	f := resource.WholeProgram()
	fe.RegisterSeries("m", f)
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr, err := DialTransportRetry(l.Addr(), "paradynd@node0", 1, testRetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const senders, reports = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]datasource.Sample, 2)
			for i := 0; i < reports; i++ {
				for j := range batch {
					batch[j] = sample("m", f, fmt.Sprintf("p%d", g), sim.Time(i), 1)
				}
				if err := tr.Report(samples(batch...)); err != nil {
					t.Error(err)
					return
				}
				batch[0].Delta = 1000 // the array is the caller's again
			}
		}()
	}
	wg.Wait()
	if got, want := fe.Series("m", f).Total(), float64(2*senders*reports); got != want {
		t.Errorf("total = %v, want %v", got, want)
	}
}

func TestBackoffScheduleDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		fe := New()
		l, err := fe.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		cfg := testRetryConfig()
		cfg.Seed = seed
		tr, err := DialTransportRetry(l.Addr(), "d", 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.Injection(wire.ChanCtl).AddDrops(3)
		if err := tr.Report(update(datasource.Update{Kind: datasource.UpHeartbeat})); err != nil {
			t.Fatal(err)
		}
		return tr.Stats(wire.ChanCtl).Backoffs
	}
	a, b := run(7), run(7)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("backoffs: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same seed, different backoff[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

func TestHalfClosedSocketSurfacesErrorNotHang(t *testing.T) {
	// A server that accepts and never acknowledges: the per-message deadline
	// must surface an error instead of wedging the daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c // hold the connection open, never read or write
		}
	}()

	cfg := testRetryConfig()
	cfg.MsgTimeout = 50 * time.Millisecond
	cfg.MaxAttempts = 2
	tr, err := DialTransportRetry(ln.Addr().String(), "d", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	done := make(chan error, 1)
	go func() { done <- tr.Report(update(datasource.Update{Kind: datasource.UpHeartbeat})) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("send to mute server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send hung on half-closed socket")
	}
}

func TestSendOnClosedTransportFailsFast(t *testing.T) {
	fe := New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr, err := DialTransportRetry(l.Addr(), "d", 0, testRetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	// The bulk row is the one that bites: no shard was sent before Close, so
	// the lazily dialed channel must not come up afterwards and deliver.
	for _, ev := range []session.Event{
		update(datasource.Update{Kind: datasource.UpHeartbeat}),
		shard(trace.Shard{Proc: "p0", Node: "node0", Spans: make([]trace.Span, 1)}),
	} {
		if err := tr.Report(ev); !errors.Is(err, wire.ErrClosed) {
			t.Errorf("%v on a closed transport: err = %v, want wire.ErrClosed", ev.Kind, err)
		}
	}
	tr.Injection(wire.ChanBulk) // asking for the injection point must not dial either
	if got := l.WireStats(wire.ChanBulk).Frames; got != 0 {
		t.Errorf("closed transport delivered %d bulk frames", got)
	}
	if fe.Timeline() != nil {
		t.Error("closed transport's shard reached the timeline")
	}
}

const d0, d1 = "paradynd@node0", "paradynd@node1"

// A well-formed shard and sample batch from d0: what a daemon sends after a
// refusal.
var (
	aShard      = shard(trace.Shard{Daemon: d0, Proc: "p0", Node: "node0", Spans: make([]trace.Span, 2)})
	someSamples = samples(sample("m", resource.WholeProgram(), "p0", sim.Time(sim.Second), 5))
)

type forgedFrame struct {
	name string
	f    frame
}

// forgedFrames lists frames no daemon transport sends: a bad envelope, a
// kind daemons never report, a packed form that does not unpack to exactly
// one report of the frame's kind, and an inner sender stamp that disagrees
// with the envelope.
func forgedFrames() []forgedFrame {
	var pk session.Packer
	pack := func(evs ...session.Event) []byte { return pk.PackEvents(nil, evs) }
	packedSamples := sealed(frame{}, someSamples).Packed
	corrupt := append([]byte(nil), packedSamples...)
	corrupt[0] = 0x7f // 127 samples in a dozen bytes
	// Shards arrive as the bytes their daemon packed, and are kept as bytes:
	// what the verifying walk must refuse is refused here, before the
	// timeline or the recorder sees anything.
	packedShard := sealed(frame{}, aShard).Packed
	overcount := append([]byte(nil), packedShard...)
	overcount[0]++ // three records claimed, two there
	badRecord := append([]byte(nil), packedShard...)
	badRecord[len(badRecord)-13] = byte(trace.MarkEvent+1) << 1 // the last record's kind: head, dictionary and header intact
	var tpk trace.Packer
	rec := trace.NewRecorder("p0", "node0", 0)
	rec.Record(trace.Span{Name: "compute"})
	drainedByD1 := shard(rec.DrainShard(&tpk, d1))
	env := frame{Daemon: d0, Seq: 1}
	as := func(kind session.EventKind, packed []byte) frame {
		return frame{Daemon: d0, Seq: 1, Kind: kind, Packed: packed}
	}
	stale := session.Event{Kind: session.EvStale, Update: datasource.Update{Daemon: d0, Time: sim.Time(sim.Second)}}
	gap := session.Event{Kind: session.EvGap, Gap: datasource.Gap{Node: "node0", From: 1, To: 2}}
	enable := session.Event{Kind: session.EvEnable, Metric: "m", Focus: resource.WholeProgram()}
	heartbeat := update(datasource.Update{Kind: datasource.UpHeartbeat, Daemon: d0, Time: sim.Time(5 * sim.Second)})
	return []forgedFrame{
		{"empty daemon", sealed(frame{Seq: 1}, someSamples)},
		{"seq 0", sealed(frame{Daemon: d0}, someSamples)},
		// Kinds only the front end produces, under their own kind ...
		{"stale verdict", sealed(env, stale)},
		{"barrier", sealed(env, session.Event{Kind: session.EvBarrier})},
		{"gap", sealed(env, gap)},
		// ... or smuggled inside an update frame.
		{"stale verdict packed inside an update frame", as(session.EvUpdate, pack(stale))},
		{"gap packed inside an update frame", as(session.EvUpdate, pack(gap))},
		{"enable packed inside an update frame", as(session.EvUpdate, pack(enable))},
		// The packed form has to unpack, to exactly one report of the
		// frame's kind.
		{"two updates in one frame", as(session.EvUpdate, pack(heartbeat, heartbeat))},
		{"sample batch under the update kind", as(session.EvUpdate, packedSamples)},
		{"corrupt packed samples", as(session.EvSamples, corrupt)},
		{"empty packed samples", as(session.EvSamples, nil)},
		{"empty packed update", as(session.EvUpdate, nil)},
		{"empty packed shard", as(session.EvShard, nil)},
		// The inner sender stamp must agree with the envelope: node0's
		// connection cannot speak for node1.
		{"heartbeat stamped by another daemon", sealed(env,
			update(datasource.Update{Kind: datasource.UpHeartbeat, Daemon: d1, Time: sim.Time(5 * sim.Second)}))},
		{"shard stamped by another daemon", sealed(env,
			shard(trace.Shard{Daemon: d1, Proc: "p0", Node: "node0", Spans: make([]trace.Span, 2)}))},
		{"shard drained by another daemon", sealed(env, drainedByD1)},
		{"shard claiming more records than it holds", as(session.EvShard, overcount)},
		{"shard corrupted after its dictionary", as(session.EvShard, badRecord)},
	}
}

// A frame can carry any kind and any bytes under any envelope; only what a
// daemon transport produces may reach the front end. Everything else costs
// the sender its connection — no apply, no ack — and leaves the analysis
// state and the recorded stream exactly as they were; the next well-formed
// connection is served as if nothing had happened.
func TestListenerRefusesForgedFrames(t *testing.T) {
	for _, tc := range forgedFrames() {
		t.Run(tc.name, func(t *testing.T) {
			fe := New()
			fe.RegisterSeries("m", resource.WholeProgram())
			fe.EnableTrace()
			sink := &captureSink{}
			fe.SetRecorder(sink)
			fe.Report(update(datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p0", Daemon: d0, Time: 1}))
			snapshot := func() string {
				tl := fe.Timeline()
				return fmt.Sprintf("%s%+v gaps=%v total=%g shards=%d spans=%d recorded=%d",
					fe.Hierarchy().Render(), fe.SilentDaemons(sim.Time(1<<62), 0), fe.UnmeasuredGaps(),
					fe.Series("m", resource.WholeProgram()).Total(), tl.Stats().Shards, len(tl.Spans()), sink.EventCount())
			}
			before := snapshot()

			l, err := fe.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cfg := testRetryConfig()
			cfg.MaxAttempts = 1
			c, err := wire.Dial(l.Addr(), cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var ack bool
			if err := c.Exchange(wire.Request{Req: &tc.f, Resp: &ack, Label: "forged"}); err == nil {
				t.Error("forged frame was acknowledged")
			}
			if got := l.WireStats(wire.ChanCtl).Refused; got != 1 {
				t.Errorf("refused = %d, want 1", got)
			}
			if after := snapshot(); after != before {
				t.Errorf("forged frame changed front-end state:\nbefore %s\nafter  %s", before, after)
			}

			tr, err := DialTransportRetry(l.Addr(), d0, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			for _, ev := range []session.Event{someSamples, aShard} {
				if err := tr.Report(ev); err != nil {
					t.Fatalf("well-formed %v after the refusal: %v", ev.Kind, err)
				}
			}
			if total, spans := fe.Series("m", resource.WholeProgram()).Total(), len(fe.Timeline().Spans()); total != 5 || spans != 2 || l.WireStats(wire.ChanCtl).Refused != 1 {
				t.Errorf("after the refusal a daemon's reports gave total %g, %d spans, %d refusals; want 5, 2, 1", total, spans, l.WireStats(wire.ChanCtl).Refused)
			}
		})
	}
}

// Receiving a report is one gob decode of the five-field envelope and one
// unpack through the connection's string table and sample scratch. Once the stream's type definition
// and the table's strings have been seen, a frame costs the decoded daemon
// name and little else; the first frame on a connection carries only the
// envelope's type, not a session.Event's.
func TestReportFrameReceiveCost(t *testing.T) {
	env := frame{Daemon: d0, Seq: 1}
	heartbeat := sealed(env, update(datasource.Update{Kind: datasource.UpHeartbeat, Daemon: d0, Time: sim.Time(5 * sim.Second)}))
	batch := sealed(env, someSamples)
	// conn is what Listener.serve keeps for one connection.
	type conn struct {
		up      session.Unpacker
		samples []datasource.Sample
		shard   trace.Shard
		f       frame
	}
	receive := func(dec *gob.Decoder, c *conn) {
		c.f = frame{Packed: c.f.Packed[:0]}
		if err := dec.Decode(&c.f); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.f.open(&c.up, &c.samples, &c.shard); !ok {
			t.Fatal("a sealed frame was refused")
		}
	}
	for _, tc := range []struct {
		name string
		f    frame
	}{{"update", heartbeat}, {"samples", batch}} {
		const runs = 50
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		for range runs + 2 { // the first frame, AllocsPerRun's warm-up, the runs
			if err := enc.Encode(&tc.f); err != nil {
				t.Fatal(err)
			}
		}
		var c conn
		dec := gob.NewDecoder(&stream)
		receive(dec, &c)
		if got := testing.AllocsPerRun(runs, func() { receive(dec, &c) }); got > 2 {
			t.Errorf("a repeated %s frame costs %.0f objects to receive, want ≤ 2", tc.name, got)
		}

		var first bytes.Buffer
		if err := gob.NewEncoder(&first).Encode(&tc.f); err != nil {
			t.Fatal(err)
		}
		if first.Len() > 200 {
			t.Errorf("the first %s frame on a connection is %d bytes, want ≤ 200", tc.name, first.Len())
		}
		got := testing.AllocsPerRun(1, func() {
			receive(gob.NewDecoder(bytes.NewReader(first.Bytes())), new(conn))
		})
		if got > 250 {
			t.Errorf("the first %s frame on a fresh decoder costs %.0f objects, want ≤ 250", tc.name, got)
		}
	}
}

// No byte string under any envelope makes open panic, and what it accepts is
// a report a daemon sends: of the frame's kind, on a channel, stamped by
// nobody or by the envelope's daemon.
func FuzzFrameOpen(f *testing.F) {
	env := frame{Daemon: d0, Seq: 1}
	for _, ev := range []session.Event{someSamples, aShard, update(datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p0", Daemon: d0, Time: 1})} {
		fr := sealed(env, ev)
		f.Add(int(fr.Kind), fr.Daemon, fr.Seq, fr.Packed)
	}
	for _, tc := range forgedFrames() {
		f.Add(int(tc.f.Kind), tc.f.Daemon, tc.f.Seq, tc.f.Packed)
	}
	f.Fuzz(func(t *testing.T, kind int, name string, seq uint64, packed []byte) {
		fr := frame{Daemon: name, Seq: seq, Kind: session.EventKind(kind), Packed: packed}
		ev, ok := fr.open(new(session.Unpacker), new([]datasource.Sample), new(trace.Shard))
		if !ok {
			return
		}
		if _, rides := daemon.ChannelOf(ev.Kind); ev.Kind != fr.Kind || !rides {
			t.Fatalf("a %v frame opened to a %v event", fr.Kind, ev.Kind)
		}
		stamp := ev.Update.Daemon
		if ev.Kind == session.EvShard {
			stamp = ev.Shard.Daemon
		}
		if stamp != "" && stamp != name {
			t.Fatalf("a frame from %q opened to a report stamped by %q", name, stamp)
		}
	})
}
