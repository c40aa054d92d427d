package daemon

// Tests for the trace-loss accounting of the resilience layer: spans evicted
// from the bounded bulk queue must surface in the OutboxLost counter shards
// carry to the timeline, spans stranded by a permanently-down transport must
// surface as undelivered, and each queue's replay must preserve delivery
// order.

import (
	"errors"
	"fmt"
	"testing"

	"pperf/internal/mdl"
	"pperf/internal/sim"
	"pperf/internal/trace"
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

func (s *chanSink) Samples(batch []Sample) error {
	if s.down {
		return errSinkDown
	}
	s.events = append(s.events, "samples")
	return nil
}

func (s *chanSink) Update(u Update) error {
	if s.down {
		return errSinkDown
	}
	s.events = append(s.events, fmt.Sprintf("update:%d", u.Kind))
	return nil
}

func (s *chanSink) Shard(sh trace.Shard) error {
	if s.bulkDown {
		return errSinkDown
	}
	s.events = append(s.events, fmt.Sprintf("shard:%d", len(sh.Spans)))
	s.shards = append(s.shards, sh)
	return nil
}

func mkShard(n int) trace.Shard {
	return trace.Shard{Proc: "p{0}", Node: "node0", Spans: make([]trace.Span, n)}
}

func TestBulkQueueEvictionCountsSpans(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{bulkDown: true}
	cfg := DefaultConfig()
	cfg.BulkQueueLimit = 2
	d := New(eng, 0, "node0", mdl.StdLib(), sink, cfg)
	d.EnableTracing(trace.New(&trace.Config{FlushWatermark: -1}))

	d.sendShard(mkShard(3))
	d.sendShard(mkShard(4))
	d.sendShard(mkShard(5)) // bulk queue bound evicts the 3-span shard
	if d.BulkDepth() != 2 {
		t.Errorf("bulk depth = %d, want 2", d.BulkDepth())
	}
	if got := d.LostSpans()["p{0}"]; got != 3 {
		t.Errorf("lost spans = %d, want 3", got)
	}

	sink.bulkDown = false
	d.flushBulk()
	if d.BulkDepth() != 0 {
		t.Errorf("bulk depth after flush = %d, want 0", d.BulkDepth())
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
	if tl.OutboxLost() != 3 || tl.Lost() != 3 {
		t.Errorf("timeline OutboxLost = %d, Lost = %d, want 3, 3", tl.OutboxLost(), tl.Lost())
	}
	// Bulk-channel trouble must leave no trace of itself in the timeline:
	// no transport events on the daemon's own track, and nothing in the
	// report outbox.
	if rec := d.tracer.Recorder(NameFor("node0")); rec != nil && rec.Len() > 0 {
		t.Errorf("bulk path recorded %d daemon-track spans; timeline must not depend on shipping", rec.Len())
	}
	if queued, _ := d.OutboxDepth(); queued != 0 {
		t.Errorf("shards leaked into the report outbox: depth %d", queued)
	}
}

func TestFlushTraceCountsUndeliveredSpans(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{down: true, bulkDown: true}
	d := New(eng, 0, "node0", mdl.StdLib(), sink, DefaultConfig())
	tr := trace.New(&trace.Config{FlushWatermark: -1})
	d.EnableTracing(tr)

	for i := 0; i < 5; i++ {
		tr.Mark("p{0}", "node0", "m", eng.Now())
	}
	d.FlushTrace()

	if got := d.UndeliveredSpans()["p{0}"]; got != 5 {
		t.Errorf("undelivered spans = %d, want 5", got)
	}
	if d.BulkDepth() != 0 {
		t.Errorf("stranded shards still queued: depth %d", d.BulkDepth())
	}
	// A second flush with nothing new must not double-count.
	d.FlushTrace()
	if got := d.UndeliveredSpans()["p{0}"]; got != 5 {
		t.Errorf("undelivered spans after re-flush = %d, want 5", got)
	}

	// The timeline's idempotent note keeps the per-track maximum.
	tl := trace.NewTimeline()
	for proc, n := range d.UndeliveredSpans() {
		tl.NoteUndelivered(proc, n)
		tl.NoteUndelivered(proc, n)
	}
	if tl.Undelivered() != 5 {
		t.Errorf("timeline undelivered = %d, want 5", tl.Undelivered())
	}
}

func TestOutboxReplayPreservesInterleavedOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{down: true, bulkDown: true}
	cfg := DefaultConfig()
	cfg.OutboxLimit = 3
	d := New(eng, 0, "node0", mdl.StdLib(), sink, cfg)
	d.EnableTracing(trace.New(&trace.Config{FlushWatermark: -1}))

	d.sendSamples([]Sample{{Metric: "evicted"}}) // dropped to the bound below
	d.sendShard(mkShard(2))                      // bulk queue: never competes for outbox slots
	d.sendUpdate(Update{Kind: UpAddResource, Path: "/Machine/node0/p{0}"})
	d.sendSamples([]Sample{{Metric: "m"}})
	d.sendShard(mkShard(3))
	d.sendUpdate(Update{Kind: UpHeartbeat}) // 4th report: evicts the first

	if queued, dropped := d.OutboxDepth(); queued != 3 || dropped != 1 {
		t.Errorf("outbox queued=%d dropped=%d, want 3 and 1", queued, dropped)
	}
	if d.BulkDepth() != 2 || len(d.LostSpans()) != 0 {
		t.Errorf("bulk depth = %d, lost spans = %v; outbox pressure must not evict shards", d.BulkDepth(), d.LostSpans())
	}

	sink.down, sink.bulkDown = false, false
	d.flushOutbox()
	d.flushBulk()
	want := []string{
		fmt.Sprintf("update:%d", UpAddResource),
		"samples",
		fmt.Sprintf("update:%d", UpHeartbeat),
		"shard:2",
		"shard:3",
	}
	if fmt.Sprint(sink.events) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", sink.events, want)
	}
	if queued, _ := d.OutboxDepth(); queued != 0 || d.BulkDepth() != 0 {
		t.Errorf("queues not drained: outbox %d, bulk %d", queued, d.BulkDepth())
	}
}

func TestFillHookShipsAtWatermark(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &chanSink{}
	d := New(eng, 0, "node0", mdl.StdLib(), sink, DefaultConfig())
	tr := trace.New(&trace.Config{RingCapacity: 8, FlushWatermark: 4})
	d.EnableTracing(tr)

	for i := 0; i < 3; i++ {
		tr.Mark("p{0}", "node0", "m", eng.Now())
	}
	if len(sink.shards) != 0 {
		t.Fatalf("shipped below the watermark: %d shards", len(sink.shards))
	}
	tr.Mark("p{0}", "node0", "m", eng.Now()) // 4th span reaches the watermark
	if len(sink.shards) != 1 || len(sink.shards[0].Spans) != 4 {
		t.Fatalf("want one 4-span shard at the watermark, got %+v", sink.shards)
	}
	if rec := tr.Recorder("p{0}"); rec.Len() != 0 {
		t.Errorf("recorder not drained by eager ship: %d left", rec.Len())
	}
}
