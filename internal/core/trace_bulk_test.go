package core

// Acceptance tests for the dedicated bulk trace-streaming channel: with
// tracing armed, shard traffic moves only on the bulk channel and the control
// path's frame count is untouched; eager (watermark-triggered) shipping
// produces a merged timeline byte-identical to the tick-coupled path, with
// and without injected bulk-channel faults.

import (
	"bytes"
	"testing"

	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

func runTracedSession(t testing.TB, useTCP bool, tcfg *trace.Config, plan *faults.Plan) *Session {
	t.Helper()
	s, err := NewSession(Options{
		Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1,
		UseTCP: useTCP,
		Trace:  tcfg,
		Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Register("pp", pingPong(300, sim.Millisecond))
	if err := s.Launch("pp", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func timelineCSV(t testing.TB, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, s.FE.Timeline()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceBytesStayOffControlChannel(t *testing.T) {
	untraced := runTracedSession(t, true, nil, nil)
	traced := runTracedSession(t, true, &trace.Config{}, nil)

	if got := traced.listener.WireStats(wire.ChanBulk).Frames; got == 0 {
		t.Error("no bulk frames despite armed tracing")
	}
	// Arming tracing must not change what the sampling path sends: the
	// control channel carries exactly the frames of the untraced run.
	if tc, uc := traced.listener.WireStats(wire.ChanCtl).Frames, untraced.listener.WireStats(wire.ChanCtl).Frames; tc != uc {
		t.Errorf("control frames with tracing = %d, without = %d — trace load leaked into the sampling path", tc, uc)
	}
	if traced.FE.Timeline().Lost() != 0 {
		t.Errorf("spans lost on a healthy run: %d", traced.FE.Timeline().Lost())
	}
}

func TestEagerShippingMatchesTickCoupledTimeline(t *testing.T) {
	// FlushWatermark < 0 is the pre-bulk-channel behaviour: shards move only
	// on sampling ticks and the end-of-run flush.
	tick := runTracedSession(t, false, &trace.Config{FlushWatermark: -1}, nil)
	eager := runTracedSession(t, false, &trace.Config{FlushWatermark: 16}, nil)

	tickCSV, eagerCSV := timelineCSV(t, tick), timelineCSV(t, eager)
	if !bytes.Equal(tickCSV, eagerCSV) {
		t.Error("eager shipping changed the merged timeline")
	}
	ct := trace.Analyze(tick.FE.Timeline()).Render()
	ce := trace.Analyze(eager.FE.Timeline()).Render()
	if ct != ce {
		t.Errorf("critical paths differ:\n%s---\n%s", ct, ce)
	}

	// Same equivalence under injected bulk-channel faults: the bulk queue
	// absorbs the failures and replays, so nothing is lost and the timeline
	// stays byte-identical — while the control path keeps flowing.
	plan := func() *faults.Plan {
		p, err := faults.Parse("t=50ms drop-transport node0 n=4 chan=bulk; t=120ms drop-transport node1 n=2 chan=bulk")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	faulted := runTracedSession(t, false, &trace.Config{FlushWatermark: 16}, plan())
	if got := timelineCSV(t, faulted); !bytes.Equal(got, eagerCSV) {
		t.Error("bulk-channel faults changed the merged timeline")
	}
	if got := faulted.FE.Timeline().Lost(); got != 0 {
		t.Errorf("spans lost to absorbed bulk faults: %d", got)
	}
	ws := faulted.WireStats()
	if ws[wire.ChanBulk].InjectedDrops != 6 {
		t.Errorf("bulk injected drops = %d, want the plan's 4+2", ws[wire.ChanBulk].InjectedDrops)
	}
	if got := ws[wire.ChanCtl].InjectedDrops; got != 0 {
		t.Errorf("chan=bulk leaked %d failures onto the control channel", got)
	}
}

func TestEagerShippingMatchesOverTCP(t *testing.T) {
	tick := runTracedSession(t, true, &trace.Config{FlushWatermark: -1}, nil)
	eager := runTracedSession(t, true, &trace.Config{FlushWatermark: 16}, nil)
	if !bytes.Equal(timelineCSV(t, tick), timelineCSV(t, eager)) {
		t.Error("eager shipping changed the merged timeline over TCP")
	}
}

// BenchmarkSamplingPathWithTracing measures a full traced session over TCP
// under heavy span load and reports the control-channel frame count per run —
// the payload the bulk channel exists to keep constant. Compare with
// BenchmarkSamplingPathUntraced: ctl-frames/op must match.
func BenchmarkSamplingPathWithTracing(b *testing.B) {
	benchSession(b, &trace.Config{})
}

func BenchmarkSamplingPathUntraced(b *testing.B) {
	benchSession(b, nil)
}

func benchSession(b *testing.B, tcfg *trace.Config) {
	var ctlFrames, bulkFrames int64
	for i := 0; i < b.N; i++ {
		s := runTracedSession(b, true, tcfg, nil)
		ctlFrames += s.listener.WireStats(wire.ChanCtl).Frames
		bulkFrames += s.listener.WireStats(wire.ChanBulk).Frames
		s.Close()
	}
	b.ReportMetric(float64(ctlFrames)/float64(b.N), "ctl-frames/op")
	b.ReportMetric(float64(bulkFrames)/float64(b.N), "bulk-frames/op")
}
