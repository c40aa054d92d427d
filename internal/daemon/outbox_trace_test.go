package daemon

// Tests for the trace-loss accounting of the resilience layer: spans evicted
// from the bounded bulk queue must surface in the OutboxLost counter shards
// carry to the timeline, spans stranded by a permanently-down transport must
// surface as undelivered, and each queue's replay must preserve delivery
// order.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pperf/internal/datasource"
	"pperf/internal/mdl"
	"pperf/internal/packed"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

var errSinkDown = errors.New("sink down")

// chanSink is a Transport with a switchable outage per channel, mirroring the
// two-channel TCP transport, that records every delivery in arrival order.
type chanSink struct {
	down     bool // control channel outage
	bulkDown bool // bulk channel outage
	events   []string
	shards   []trace.Shard
}

func (s *chanSink) Report(ev session.Event) error {
	ch, _ := ChannelOf(ev.Kind)
	if (ch == wire.ChanBulk && s.bulkDown) || (ch == wire.ChanCtl && s.down) {
		return errSinkDown
	}
	switch ev.Kind {
	case session.EvSamples:
		s.events = append(s.events, "samples")
	case session.EvUpdate:
		s.events = append(s.events, fmt.Sprintf("update:%d", ev.Update.Kind))
	case session.EvShard:
		s.events = append(s.events, fmt.Sprintf("shard:%d", ev.Shard.Len()))
		s.shards = append(s.shards, *ev.Shard) // the caller owns ev.Shard
	}
	return nil
}

func mkShard(n int) session.Event {
	return session.Event{Kind: session.EvShard, Shard: &trace.Shard{Proc: "p{0}", Node: "node0", Spans: make([]trace.Span, n)}}
}

func mkSamples(metric string) session.Event {
	return session.Event{Kind: session.EvSamples, Samples: []datasource.Sample{{Metric: metric}}}
}

func TestBulkQueueEvictionCountsSpans(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{bulkDown: true}
	d := New(eng, 0, "node0", mdl.StdLib(), sink, DefaultConfig())
	d.bulk.limit = 2
	d.EnableTracing(trace.New(&trace.Config{FlushWatermark: -1}))

	d.send(mkShard(3))
	d.send(mkShard(4))
	d.send(mkShard(5)) // bulk queue bound evicts the 3-span shard
	if st := d.Stats(); st.Bulk != (QueueStats{Queued: 2, High: 2, Evicted: 1}) || st.LostSpans["p{0}"] != 3 {
		t.Errorf("bulk queue %+v, lost spans %v; want 2 queued, high 2, 1 evicted and 3 spans lost", st.Bulk, st.LostSpans)
	}

	sink.bulkDown = false
	d.flush(&d.bulk)
	if len(d.bulk.evs) != 0 {
		t.Errorf("bulk depth after flush = %d, want 0", len(d.bulk.evs))
	}
	if got := fmt.Sprint(sink.events); got != "[shard:4 shard:5]" {
		t.Fatalf("delivered %s, want the two surviving shards in queue order", got)
	}
	tl := trace.NewTimeline()
	for _, sh := range sink.shards {
		if sh.OutboxLost != 3 {
			t.Errorf("replayed shard OutboxLost = %d, want 3", sh.OutboxLost)
		}
		tl.Ingest(sh)
	}
	if st := tl.Stats(); st.OutboxLost != 3 || st.Lost() != 3 {
		t.Errorf("timeline OutboxLost = %d, Lost = %d, want 3, 3", st.OutboxLost, st.Lost())
	}
	// Bulk-channel trouble must leave no trace of itself in the timeline:
	// no transport events on the daemon's own track, and nothing in the
	// report outbox.
	for _, rec := range d.tracer.Recorders("node0") {
		if rec.Proc() == NameFor("node0") && rec.Len() > 0 {
			t.Errorf("bulk path recorded %d daemon-track spans; timeline must not depend on shipping", rec.Len())
		}
	}
	if queued := len(d.ctl.evs); queued != 0 {
		t.Errorf("shards leaked into the report outbox: depth %d", queued)
	}
}

// The daemon drains every shard into one scratch Shard, so a shard queued
// while the bulk channel is down must be the queue's own copy: delivered
// later, each carries the spans it was drained with and the OutboxLost of its
// own track, and an evicted one is counted by its own spans.
func TestQueuedShardsKeepTheirOwnSpans(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{bulkDown: true}
	d := New(eng, 0, "node0", mdl.StdLib(), sink, DefaultConfig())
	d.bulk.limit = 2
	tr := trace.New(&trace.Config{FlushWatermark: -1})
	d.EnableTracing(tr)
	drain := func(proc, what string, n int) {
		for i := 0; i < n; i++ {
			tr.Transport(proc, "node0", what, eng.Now())
		}
		d.flushTraceShards()
	}
	drain("p{0}", "a", 2)
	drain("p{1}", "b", 3)
	drain("p{0}", "c", 1) // past the bound: evicts p{0}'s two "a" spans
	if st := d.Stats(); st.Bulk.Evicted != 1 || st.LostSpans["p{0}"] != 2 || st.LostSpans["p{1}"] != 0 {
		t.Fatalf("bulk queue %+v, lost spans %v; want the 2-span shard of p{0} evicted", st.Bulk, st.LostSpans)
	}

	sink.bulkDown = false
	d.flush(&d.bulk)
	var got []string
	for _, sh := range sink.shards {
		spans, err := trace.UnpackShard(new(packed.Table), sh.Packed())
		if err != nil {
			t.Fatal(err)
		}
		names := ""
		for _, s := range spans.Spans {
			names += s.Name
		}
		got = append(got, fmt.Sprintf("%s:%s lost=%d", sh.Proc, names, sh.OutboxLost))
	}
	if want := "[p{1}:bbb lost=0 p{0}:c lost=2]"; fmt.Sprint(got) != want {
		t.Errorf("delivered %v, want %s", got, want)
	}
}

func TestFlushTraceCountsUndeliveredSpans(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{down: true, bulkDown: true}
	d := New(eng, 0, "node0", mdl.StdLib(), sink, DefaultConfig())
	tr := trace.New(&trace.Config{FlushWatermark: -1})
	d.EnableTracing(tr)

	for i := 0; i < 5; i++ {
		tr.Transport("p{0}", "node0", "m", eng.Now())
	}
	d.FlushTrace()

	if got := d.undelivered["p{0}"]; got != 5 {
		t.Errorf("undelivered spans = %d, want 5", got)
	}
	if len(d.bulk.evs) != 0 {
		t.Errorf("stranded shards still queued: depth %d", len(d.bulk.evs))
	}
	// A second flush with nothing new must not double-count.
	d.FlushTrace()
	if got := d.undelivered["p{0}"]; got != 5 {
		t.Errorf("undelivered spans after re-flush = %d, want 5", got)
	}

	// The timeline's idempotent note keeps the per-track maximum.
	tl := trace.NewTimeline()
	for proc, n := range d.undelivered {
		tl.NoteUndelivered(proc, n)
		tl.NoteUndelivered(proc, n)
	}
	if got := tl.Stats().Undelivered; got != 5 {
		t.Errorf("timeline undelivered = %d, want 5", got)
	}
}

func TestOutboxReplayPreservesInterleavedOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{down: true, bulkDown: true}
	d := New(eng, 0, "node0", mdl.StdLib(), sink, DefaultConfig())
	d.ctl.limit = 3
	d.EnableTracing(trace.New(&trace.Config{FlushWatermark: -1}))

	d.send(mkSamples("evicted")) // dropped to the bound below
	d.send(mkShard(2))           // bulk queue: never competes for outbox slots
	d.sendUpdate(datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p{0}"})
	d.send(mkSamples("m"))
	d.send(mkShard(3))
	d.sendUpdate(datasource.Update{Kind: datasource.UpHeartbeat}) // 4th report: evicts the first

	if queued, dropped := len(d.ctl.evs), d.ctl.evicted; queued != 3 || dropped != 1 {
		t.Errorf("outbox queued=%d dropped=%d, want 3 and 1", queued, dropped)
	}
	if len(d.bulk.evs) != 2 || len(d.lostSpans) != 0 {
		t.Errorf("bulk depth = %d, lost spans = %v; outbox pressure must not evict shards", len(d.bulk.evs), d.lostSpans)
	}

	sink.down, sink.bulkDown = false, false
	d.flush(&d.ctl)
	d.flush(&d.bulk)
	want := []string{
		fmt.Sprintf("update:%d", datasource.UpAddResource),
		"samples",
		fmt.Sprintf("update:%d", datasource.UpHeartbeat),
		"shard:2",
		"shard:3",
	}
	if fmt.Sprint(sink.events) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", sink.events, want)
	}
	if len(d.ctl.evs) != 0 || len(d.bulk.evs) != 0 {
		t.Errorf("queues not drained: outbox %d, bulk %d", len(d.ctl.evs), len(d.bulk.evs))
	}
}

func TestFillHookShipsAtWatermark(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{}
	d := New(eng, 0, "node0", mdl.StdLib(), sink, DefaultConfig())
	tr := trace.New(&trace.Config{RingCapacity: 8, FlushWatermark: 4})
	d.EnableTracing(tr)

	for i := 0; i < 3; i++ {
		tr.Transport("p{0}", "node0", "m", eng.Now())
	}
	if len(sink.shards) != 0 {
		t.Fatalf("shipped below the watermark: %d shards", len(sink.shards))
	}
	tr.Transport("p{0}", "node0", "m", eng.Now()) // 4th span reaches the watermark
	if len(sink.shards) != 1 || sink.shards[0].Len() != 4 {
		t.Fatalf("want one 4-span shard at the watermark, got %+v", sink.shards)
	}
	for _, rec := range tr.Recorders("") {
		if rec.Len() != 0 {
			t.Errorf("recorder %s not drained by eager ship: %d left", rec.Proc(), rec.Len())
		}
	}
}

// TestQueue pins the bounded FIFO on its own: pushes past the bound evict
// oldest-first and tell the eviction callback once per evicted report, a
// drain stops at the first failed send leaving that report and everything
// behind it queued in order, and the counters follow.
func TestQueue(t *testing.T) {
	names := func(evs []session.Event) string {
		var out []string
		for _, ev := range evs {
			out = append(out, ev.Samples[0].Metric)
		}
		return fmt.Sprint(out)
	}
	for _, tc := range []struct {
		name        string
		pushes      int // reports m0, m1, … pushed into a limit-3 queue
		failAt      int // 1-based drain send that fails; 0 = none
		wantEvicted string
		wantSent    string
		wantQueued  string
		wantHigh    int
	}{
		{"under the bound", 2, 0, "[]", "[m0 m1]", "[]", 2},
		{"at the bound", 3, 0, "[]", "[m0 m1 m2]", "[]", 3},
		{"past the bound evicts oldest first", 5, 0, "[m0 m1]", "[m2 m3 m4]", "[]", 3},
		{"drain fails on the first send", 3, 1, "[]", "[]", "[m0 m1 m2]", 3},
		{"drain fails on the second send", 5, 2, "[m0 m1]", "[m2]", "[m3 m4]", 3},
		{"drain fails on the last send", 4, 3, "[m0]", "[m1 m2]", "[m3]", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var evicted, sent []session.Event
			q := queue{limit: 3, onEvict: func(ev session.Event) { evicted = append(evicted, ev) }}
			for i := 0; i < tc.pushes; i++ {
				q.push(mkSamples(fmt.Sprintf("m%d", i)))
			}
			if got := names(evicted); got != tc.wantEvicted || q.evicted != int64(len(evicted)) {
				t.Errorf("evicted %s (counter %d), want %s", got, q.evicted, tc.wantEvicted)
			}
			calls := 0
			n := q.drain(func(ev session.Event) error {
				if calls++; calls == tc.failAt {
					return errSinkDown
				}
				sent = append(sent, ev)
				return nil
			})
			if got := names(sent); got != tc.wantSent || n != len(sent) {
				t.Errorf("drain delivered %s (returned %d), want %s", got, n, tc.wantSent)
			}
			if got := names(q.evs); got != tc.wantQueued {
				t.Errorf("left queued %s, want %s", got, tc.wantQueued)
			}
			if q.high != tc.wantHigh {
				t.Errorf("high-water = %d, want %d", q.high, tc.wantHigh)
			}
		})
	}
}

// A report the queue has delivered or evicted is released at once, not when
// the queue next empties or reallocates: during a partial outage — the front
// of the queue draining while its tail stays — the popped slots of the
// backing array would otherwise keep the whole replayed history reachable.
func TestQueueReleasesWhatItPops(t *testing.T) {
	const limit = 8
	var released atomic.Int32
	tracked := func() session.Event {
		batch := []datasource.Sample{{}}
		runtime.SetFinalizer(&batch[0], func(*datasource.Sample) { released.Add(1) })
		return session.Event{Kind: session.EvSamples, Samples: batch}
	}
	q := queue{limit: limit}
	for i := 0; i < limit+2; i++ { // two evicted past the bound
		q.push(tracked())
	}
	left := limit / 2
	q.drain(func(session.Event) error { // half delivered, then the channel fails again
		if left == 0 {
			return errSinkDown
		}
		left--
		return nil
	})
	if len(q.evs) != limit/2 {
		t.Fatalf("%d reports left queued, want %d", len(q.evs), limit/2)
	}
	for i := 0; i < 10 && released.Load() < limit/2+2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if got := released.Load(); got != limit/2+2 {
		t.Errorf("%d of the %d popped reports were released with %d still queued; the backing array holds the rest", got, limit/2+2, len(q.evs))
	}
	runtime.KeepAlive(q.evs)
}
