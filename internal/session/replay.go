package session

import (
	"fmt"

	"pperf/internal/datasource"
	"pperf/internal/resource"
)

// ReplaySource re-presents a recorded session through the DataSource
// interface. It embeds a datasource.View — the same query plane the live
// front end uses — and fills it by applying archived events instead of
// live daemon reports.
//
// Replay is driven by the read barriers the live run stamped into the
// stream: each Sync call applies events up to and including the next
// EvBarrier, so a consumer that calls Sync once per evaluation (the
// Performance Consultant does) sees, on its k-th evaluation, exactly the
// state the k-th live evaluation saw. Events recorded after the last
// barrier (end-of-run flushes, undelivered-span accounting) are applied
// by Drain.
//
// A replay writes nothing into its archive: a loaded archive's sample
// batches stay packed (PackedBatch) and each replay decodes them into a
// scratch slice of its own, so several replays of one archive may run at
// once.
type ReplaySource struct {
	*datasource.View

	events  []Event
	pos     int
	samples []datasource.Sample // the kept batch being applied, reused

	// enables indexes the recorded enable outcomes by canonical pair
	// (first occurrence wins): "" means the live enable succeeded, any
	// other value is the error the live daemons returned.
	enables map[datasource.Pair]string
}

// ReplaySource must satisfy the same contract the live front end does.
var _ datasource.DataSource = (*ReplaySource)(nil)

// NewReplaySource builds a replay source over a loaded archive's
// Replayable events: a truncated archive (front end killed mid-run) replays
// up to its last complete read barrier, its tail dropped rather than
// presented as end-of-run state.
func NewReplaySource(a *Archive) *ReplaySource {
	v := datasource.NewView()
	v.NumBins = a.Header.NumBins
	v.BinWidth = a.Header.BinWidth
	events, _ := a.Replayable()
	// The newest sample replay will apply is where every histogram ends:
	// each reserves its bins up to it on its first sample. A kept batch
	// knows its newest, and the scratch it is decoded into is sized for the
	// largest.
	largest := 0
	for i := range events {
		if b := events[i].Batch; b != nil {
			v.Horizon, largest = max(v.Horizon, b.newest), max(largest, int(b.n))
		}
		for _, sm := range events[i].Samples {
			v.Horizon = max(v.Horizon, sm.Time)
		}
	}
	rs := &ReplaySource{View: v, events: events, samples: make([]datasource.Sample, 0, largest), enables: make(map[datasource.Pair]string)}
	// The enable index is built from the FULL stream, trimmed or not: an
	// enable outcome is metadata about what the live session requested, so
	// a request that succeeded live still succeeds on a truncated replay —
	// it just reads whatever complete windows survive.
	for i := range a.Events {
		ev := &a.Events[i]
		if ev.Kind != EvEnable {
			continue
		}
		k := datasource.Pair{Metric: ev.Metric, Focus: ev.Focus}.Canon()
		if _, ok := rs.enables[k]; !ok {
			rs.enables[k] = ev.Err
		}
	}
	return rs
}

// EnableMetric replays a metric enable. There are no daemons to
// instrument: a request the live session answered is answered identically
// (success registers the series, which subsequent Syncs fill from the
// recorded samples; failure returns the recorded error), and a request
// the live session never made cannot be served — the samples were never
// collected.
func (rs *ReplaySource) EnableMetric(metricName string, focus resource.Focus) (*datasource.Series, error) {
	if s := rs.View.Series(metricName, focus); s != nil {
		return s, nil
	}
	errMsg, ok := rs.enables[datasource.Pair{Metric: metricName, Focus: focus}.Canon()]
	if !ok {
		return nil, fmt.Errorf("session: metric %s at focus %s was not enabled in the recorded session", metricName, focus)
	}
	if errMsg != "" {
		return nil, fmt.Errorf("%s", errMsg)
	}
	s, _ := rs.View.RegisterSeries(metricName, focus)
	return s, nil
}

// DisableMetric is a no-op on replay: the recorded stream already
// reflects every disable the live session performed (the samples simply
// stop).
func (rs *ReplaySource) DisableMetric(metricName string, focus resource.Focus) {}

// Sync implements the DataSource read barrier: apply archived events up
// to and including the next recorded barrier.
func (rs *ReplaySource) Sync() {
	for rs.pos < len(rs.events) {
		ev := &rs.events[rs.pos]
		rs.pos++
		if ev.Kind == EvBarrier {
			return
		}
		rs.apply(ev)
	}
}

// apply folds one event into the View, a kept batch through rs's scratch.
func (rs *ReplaySource) apply(ev *Event) {
	if ev.Kind == EvSamples && ev.Batch != nil {
		rs.samples = ev.Batch.Unpack(rs.samples)
		rs.View.ApplySamples(rs.samples)
		return
	}
	ev.Apply(rs.View)
}

// Drain applies every remaining event — the tail recorded after the last
// consumer barrier (end-of-run trace flushes, undelivered-span counts,
// final sample batches) — and releases the decoded stream: the View now
// holds everything it said, so a later Sync or Drain is a no-op. Call it
// after the replay clock finishes.
func (rs *ReplaySource) Drain() {
	for ; rs.pos < len(rs.events); rs.pos++ {
		rs.apply(&rs.events[rs.pos])
	}
	rs.events, rs.pos, rs.samples = nil, 0, nil
}
