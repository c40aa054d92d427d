// Package datasource defines the analysis plane's data contract: the narrow
// DataSource interface everything above the wire (the Performance
// Consultant, the judge, exporters, visualization helpers) consumes, plus
// the source-agnostic state those consumers query — metric series folded
// into histograms, the mirrored resource hierarchy, the observed call
// graph, process lifecycle, and daemon liveness.
//
// Two implementations exist: the live front end (internal/frontend), which
// feeds a View from daemon reports as the program runs, and the offline
// ReplaySource (internal/session), which feeds an identical View from a
// recorded session archive. The Consultant cannot tell them apart — that is
// the point: record a run once, re-run the analysis offline forever.
package datasource

import (
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// DataSource is the complete query surface of the analysis plane. The
// Performance Consultant (and any other consumer above the wire) depends
// only on this interface, never on a concrete front end.
type DataSource interface {
	// EnableMetric turns on a metric-focus pair and returns its series. A
	// live source instruments the daemons; a replay source filters the
	// recorded sample stream instead.
	EnableMetric(metricName string, focus resource.Focus) (*Series, error)
	// DisableMetric removes a pair's instrumentation. The collected series
	// stays queryable. A replay source treats this as a no-op: the recorded
	// stream already reflects when sampling stopped.
	DisableMetric(metricName string, focus resource.Focus)
	// Series returns the series for a metric-focus pair, or nil.
	Series(metricName string, focus resource.Focus) *Series

	// Hierarchy returns the mirrored resource hierarchy.
	Hierarchy() *resource.Hierarchy
	// Callees returns the observed callees of a function, sorted.
	Callees(caller string) []string
	// IsCallee reports whether the function has been observed as someone's
	// callee (call-graph roots are the ones that never are).
	IsCallee(fname string) bool

	// Processes returns known processes sorted by name.
	Processes() []*ProcInfo
	// ProcessCount counts processes ever seen.
	ProcessCount() int
	// Coverage is the fraction of known processes whose data is
	// trustworthy (1.0 when nothing was lost).
	Coverage() float64
	// DegradationSummary describes coverage damage, or "" when full.
	DegradationSummary() string
	// UnmeasuredGaps returns the outage windows (daemon death →
	// re-attach) recorded by the supervisor, in record order. Empty for
	// runs without recoveries.
	UnmeasuredGaps() []Gap
	// GapOverlaps reports whether any unmeasured gap intersects the
	// half-open interval (from, to].
	GapOverlaps(from, to sim.Time) bool

	// CounterTracks renders the whole-program series as Perfetto counter
	// tracks for the Chrome export.
	CounterTracks() []trace.CounterTrack

	// Sync is a read barrier: consumers call it before a batch of queries.
	// A live source records the barrier into the session archive; a replay
	// source applies recorded events up to the matching barrier, so the
	// k-th synchronized read in replay observes exactly the state the k-th
	// live read observed.
	Sync()
}
