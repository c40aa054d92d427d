package perfdb

import (
	"sort"
	"strings"

	"pperf/internal/datasource"
	"pperf/internal/session"
)

// RunView is a stored run materialized for querying: the full recorded
// event stream applied to a datasource.View (the same query plane the
// live front end exposes), plus the run's index entry. Unlike
// session.ReplaySource — which replays incrementally so a re-driven
// Consultant sees the live evaluation windows — a RunView is the run's
// end state: every recorded pair enabled, every event applied. It holds
// that folded state only; the decoded event stream is not kept.
type RunView struct {
	*datasource.View
	Meta RunMeta

	pairs    []datasource.Pair
	faultLog []string
}

// NewRunView materializes an archive's end state. Pairs whose live
// enable failed are left out — they never collected data.
func NewRunView(a *session.Archive, m RunMeta) *RunView {
	rs := session.NewReplaySource(a)
	rv := &RunView{View: rs.View, Meta: m}
	if log := a.Header.Meta["fault-log"]; log != "" {
		rv.faultLog = strings.Split(log, "\n")
	}
	// Register every successfully-enabled pair before applying events:
	// the view drops samples for unregistered pairs.
	for i := range a.Events {
		ev := &a.Events[i]
		if ev.Kind != session.EvEnable || ev.Err != "" {
			continue
		}
		p := datasource.Pair{Metric: ev.Metric, Focus: ev.Focus}
		if rv.SeriesFor(p) != nil {
			continue // enabled again later in the run: one pair
		}
		if _, err := rs.EnableMetric(p.Metric, p.Focus); err == nil {
			rv.pairs = append(rv.pairs, p)
		}
	}
	sort.Slice(rv.pairs, func(i, j int) bool {
		return datasource.ComparePairs(rv.pairs[i], rv.pairs[j]) < 0
	})
	rs.Drain()
	return rv
}

// Pairs returns the run's enabled metric-focus pairs, sorted by metric
// then focus.
func (rv *RunView) Pairs() []datasource.Pair {
	return append([]datasource.Pair(nil), rv.pairs...)
}

// SeriesFor returns the collected series of one pair (nil if the run
// never enabled it).
func (rv *RunView) SeriesFor(p datasource.Pair) *datasource.Series {
	return rv.Series(p.Metric, p.Focus)
}

// FaultLog returns the run's fired-fault audit trail as recorded in the
// archive header (empty for a healthy run, or for archives recorded
// before the log was persisted).
func (rv *RunView) FaultLog() []string {
	return append([]string(nil), rv.faultLog...)
}
