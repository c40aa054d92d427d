package frontend

// Tests for the dedicated bulk trace-streaming channel of the TCP transport:
// shard frames must never ride the control stream, each channel keeps its own
// sequence space and dedupe state, and injected bulk faults must leave the
// control path untouched while retry/backoff delivers every shard.

import (
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

func TestBulkChannelCarriesShardsOffControlPath(t *testing.T) {
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

	if err := tr.Report(update(datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p0"})); err != nil {
		t.Fatal(err)
	}
	if err := tr.Report(update(datasource.Update{Kind: datasource.UpHeartbeat})); err != nil {
		t.Fatal(err)
	}
	sh := trace.Shard{Proc: "p0", Node: "node0", Spans: []trace.Span{{Name: "compute", Start: sim.Time(1)}}}
	for i := 0; i < 2; i++ {
		if err := tr.Report(shard(sh)); err != nil {
			t.Fatal(err)
		}
	}

	if got := l.WireStats(wire.ChanCtl).Frames; got != 2 {
		t.Errorf("control frames = %d, want 2 (the updates)", got)
	}
	if got := l.WireStats(wire.ChanBulk).Frames; got != 2 {
		t.Errorf("bulk frames = %d, want 2 (the shards)", got)
	}
	// Both channels numbered their first frame Seq 1; per-(daemon,channel)
	// dedupe must not confuse them.
	if got := l.WireStats(wire.ChanCtl).Duplicates + l.WireStats(wire.ChanBulk).Duplicates; got != 0 {
		t.Errorf("cross-channel frames misread as duplicates: %d", got)
	}
	tl := fe.Timeline()
	if tl == nil || len(tl.Spans()) != 2 {
		t.Errorf("shards not merged into the timeline: %+v", tl)
	}
}

func TestBulkFaultsLeaveControlFlowing(t *testing.T) {
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

	tr.Injection(wire.ChanBulk).AddDrops(2)
	sh := trace.Shard{Proc: "p0", Node: "node0", Spans: []trace.Span{{Name: "compute"}}}
	if err := tr.Report(shard(sh)); err != nil {
		t.Fatalf("bulk send should survive injected faults via retry: %v", err)
	}
	if err := tr.Report(update(datasource.Update{Kind: datasource.UpHeartbeat})); err != nil {
		t.Fatal(err)
	}

	bst := tr.Stats(wire.ChanBulk)
	if bst.Frames != 1 || bst.Retries < 2 {
		t.Errorf("bulk stats = %+v, want Frames 1 with ≥2 retries", bst)
	}
	cst := tr.Stats(wire.ChanCtl)
	if cst.Frames != 1 || cst.Retries != 0 {
		t.Errorf("control stats = %+v — bulk faults leaked into the control channel", cst)
	}
	if len(fe.Timeline().Spans()) != 1 {
		t.Error("shard lost despite retry budget")
	}
}

func TestControlFaultsLeaveBulkFlowing(t *testing.T) {
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
	if err := tr.Report(shard(trace.Shard{Proc: "p0", Node: "node0", Spans: make([]trace.Span, 1)})); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats(wire.ChanBulk).Retries; got != 0 {
		t.Errorf("control faults leaked into the bulk channel: %d retries", got)
	}
	if err := tr.Report(update(datasource.Update{Kind: datasource.UpHeartbeat})); err != nil {
		t.Fatalf("control send should survive via retry: %v", err)
	}
	if got := tr.Stats(wire.ChanCtl).Retries; got < 2 {
		t.Errorf("control retries = %d, want ≥2", got)
	}
}
