package session

import (
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// archiveOf builds a complete in-memory archive holding evs.
func archiveOf(evs ...Event) *Archive {
	return &Archive{Header: Header{Version: Version, NumEvents: len(evs)}, Events: evs}
}

func enableEv(metric string, f resource.Focus, errMsg string) Event {
	return Event{Kind: EvEnable, Metric: metric, Focus: f, Err: errMsg}
}

// sampleEv is a one-sample batch of metric "m" from p0.
func sampleEv(f resource.Focus, at sim.Time, delta float64) Event {
	return Event{Kind: EvSamples, Samples: []datasource.Sample{{Metric: "m", Focus: f, Proc: "p0", Time: at, Delta: delta}}}
}

var barrierEv = Event{Kind: EvBarrier}

func TestReplaySyncAppliesUpToBarrier(t *testing.T) {
	f := resource.WholeProgram()
	a := archiveOf(
		enableEv("m", f, ""),
		sampleEv(f, 1, 3), barrierEv,
		sampleEv(f, 2, 4), barrierEv,
		sampleEv(f, 3, 5),
	)

	rs := NewReplaySource(a)
	sr, err := rs.EnableMetric("m", f)
	if err != nil {
		t.Fatal(err)
	}
	rs.Sync()
	if sr.Total() != 3 {
		t.Errorf("after barrier 1: total = %v, want 3", sr.Total())
	}
	rs.Sync()
	if sr.Total() != 7 {
		t.Errorf("after barrier 2: total = %v, want 7", sr.Total())
	}
	// The tail past the last barrier is Drain's job.
	rs.Sync()
	if sr.Total() != 12 {
		t.Errorf("final sync: total = %v, want 12", sr.Total())
	}
	rs.Drain() // idempotent once exhausted
	if sr.Total() != 12 {
		t.Errorf("drain after exhaustion: total = %v", sr.Total())
	}
}

// A truncated archive replays only up to its last complete read barrier:
// the tail fragment past it belongs to an evaluation window no live
// consumer ever observed, and must not leak into replayed state — not even
// through Drain.
// Drain applies the whole remaining stream — barriers do not stop it — and
// then lets go of the decoded events: the source keeps answering queries and
// enables from the View and the enable index, a later Sync or Drain finds
// nothing to apply, and the caller's Archive is not touched.
func TestReplayDrainReleasesTheStream(t *testing.T) {
	f := resource.WholeProgram()
	a := archiveOf(
		enableEv("m", f, ""), enableEv("late", f, ""),
		sampleEv(f, 1, 3), barrierEv,
		sampleEv(f, 2, 4), barrierEv,
		sampleEv(f, 3, 5),
	)
	rs := NewReplaySource(a)
	sr, err := rs.EnableMetric("m", f)
	if err != nil {
		t.Fatal(err)
	}
	rs.Sync()
	rs.Drain()
	if sr.Total() != 12 {
		t.Errorf("after drain: total = %v, want 12", sr.Total())
	}
	if rs.events != nil || rs.pos != 0 {
		t.Errorf("drained source still holds %d events at pos %d", len(rs.events), rs.pos)
	}
	rs.Sync()
	rs.Drain()
	if sr.Total() != 12 {
		t.Errorf("sync+drain after release: total = %v, want 12 (stream re-applied?)", sr.Total())
	}
	if _, err := rs.EnableMetric("late", f); err != nil {
		t.Errorf("enable index lost with the stream: %v", err)
	}
	if len(a.Events) != 7 {
		t.Errorf("caller's archive now has %d events, want its 7", len(a.Events))
	}
}

func TestReplayTruncatedArchiveStopsAtLastBarrier(t *testing.T) {
	f := resource.WholeProgram()
	a := archiveOf(
		enableEv("m", f, ""),
		sampleEv(f, 1, 3), barrierEv,
		sampleEv(f, 2, 4), barrierEv,
		sampleEv(f, 3, 5),
	)
	a.Truncated = true // as the loader flags a cut stream
	rs := NewReplaySource(a)
	sr, err := rs.EnableMetric("m", f)
	if err != nil {
		t.Fatal(err)
	}
	rs.Sync()
	rs.Sync()
	rs.Drain()
	// The post-barrier Delta 5 fragment is dropped; the two complete
	// windows replay.
	if sr.Total() != 7 {
		t.Errorf("total = %v, want 7 (tail fragment replayed?)", sr.Total())
	}
}

// A truncated archive with no complete barrier replays nothing: every
// recorded event belongs to the first, unfinished evaluation window. The
// enable index still serves (metadata, not window state), so the consumer
// fails on absent data rather than on a refused enable.
func TestReplayTruncatedArchiveNoBarrier(t *testing.T) {
	f := resource.WholeProgram()
	a := archiveOf(enableEv("m", f, ""), sampleEv(f, 1, 3))
	a.Truncated = true
	rs := NewReplaySource(a)
	sr, err := rs.EnableMetric("m", f)
	if err != nil {
		t.Fatal(err)
	}
	rs.Sync()
	rs.Drain()
	if sr.Total() != 0 {
		t.Errorf("total = %v, want 0 (unfinished window replayed)", sr.Total())
	}
}

func TestReplayEnableSemantics(t *testing.T) {
	f := resource.WholeProgram()
	rs := NewReplaySource(archiveOf(
		enableEv("good", f, ""),
		enableEv("refused", f, "daemon node1: unknown metric"),
	))

	if _, err := rs.EnableMetric("good", f); err != nil {
		t.Errorf("recorded success replayed as error: %v", err)
	}
	// Re-enabling an already-registered series succeeds, as live.
	if _, err := rs.EnableMetric("good", f); err != nil {
		t.Errorf("second enable: %v", err)
	}
	_, err := rs.EnableMetric("refused", f)
	if err == nil || err.Error() != "daemon node1: unknown metric" {
		t.Errorf("recorded failure replayed as %v", err)
	}
	_, err = rs.EnableMetric("never_enabled", f)
	if err == nil || !strings.Contains(err.Error(), "not enabled in the recorded session") {
		t.Errorf("unrecorded enable: err = %v", err)
	}
	// DisableMetric is a recorded-stream no-op; it must not unregister.
	rs.DisableMetric("good", f)
	if rs.Series("good", f) == nil {
		t.Error("disable dropped the replayed series")
	}
}

func TestReplayTimelinePresence(t *testing.T) {
	rs := NewReplaySource(archiveOf(barrierEv))
	if rs.Timeline() != nil {
		t.Error("untraced archive grew a timeline")
	}
	rs = NewReplaySource(archiveOf(
		barrierEv,
		Event{Kind: EvShard, Shard: &trace.Shard{Daemon: "paradynd@node0", Proc: "p0", Node: "node0"}},
		Event{Kind: EvUndelivered, Proc: "p0", N: 2},
	))
	rs.Drain()
	tl := rs.Timeline()
	if tl == nil {
		t.Fatal("shard events did not create the timeline")
	}
	if got := tl.Stats().Undelivered; got != 2 {
		t.Errorf("undelivered = %d, want 2", got)
	}
}
