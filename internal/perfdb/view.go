package perfdb

import (
	"slices"
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
// that folded state only: the event stream is folded as the chunk scan
// decodes it and never held.
type RunView struct {
	*datasource.View
	Meta RunMeta

	pairs    []datasource.Pair
	refused  []datasource.Pair // while folding: canonical pairs whose first recorded enable failed
	faultLog []string
	// barriers counts the read barriers folded; once it reaches through (-1:
	// never), only enables are folded.
	barriers, through int
}

func newRunView(h session.Header, m RunMeta, through int) *RunView {
	v := datasource.NewView()
	v.NumBins, v.BinWidth = h.NumBins, h.BinWidth
	return &RunView{View: v, Meta: m, through: through}
}

// fold applies one event of the run's stream. An enable registers its series
// where it stands — ahead of the pair's first sample, as the live front end
// had it: the view drops samples of unregistered pairs. The first outcome of
// a pair stands, as on replay, and pairs whose enable failed are left out:
// they never collected data. Past the through-th barrier only enables count.
func (rv *RunView) fold(ev *session.Event) {
	if ev.Kind != session.EvEnable {
		if rv.barriers == rv.through {
			return
		}
		if ev.Kind == session.EvBarrier {
			rv.barriers++
		}
		ev.Apply(rv.View)
		return
	}
	p := datasource.Pair{Metric: ev.Metric, Focus: ev.Focus}
	if key := p.Canon(); ev.Err != "" {
		rv.refused = append(rv.refused, key)
	} else if !slices.Contains(rv.refused, key) {
		if _, existed := rv.RegisterSeries(p.Metric, p.Focus); !existed {
			rv.pairs = append(rv.pairs, p)
		}
	}
}

// finish completes the view under the archive's final header.
func (rv *RunView) finish(h session.Header) *RunView {
	if log := h.Meta["fault-log"]; log != "" {
		rv.faultLog = strings.Split(log, "\n")
	}
	sort.Slice(rv.pairs, func(i, j int) bool {
		return datasource.ComparePairs(rv.pairs[i], rv.pairs[j]) < 0
	})
	rv.refused = nil
	return rv
}

// openRun folds the archive at path in one pass under what its header chunk
// says. Only the end of the file can say otherwise — no trailer (a crashed
// recording: the fold has to stop at its last complete barrier) or a trailer
// with another histogram configuration — and only then is the file folded
// again, under the header the first pass ended with, through the barriers
// that pass counted. Enable outcomes count from the whole file either way.
func openRun(path string, m RunMeta) (*RunView, error) {
	var rv *RunView
	s, err := scanFile(path, func(s *archiveScan) func(*session.Event) {
		rv = newRunView(s.header, m, -1)
		return rv.fold
	})
	if err == nil && (s.truncated || s.header.NumBins != rv.NumBins || s.header.BinWidth != rv.BinWidth) {
		through := -1
		if s.truncated {
			through = rv.barriers
		}
		rv = newRunView(s.header, m, through)
		_, err = scanFile(path, func(*archiveScan) func(*session.Event) { return rv.fold })
	}
	if err != nil {
		return nil, err
	}
	return rv.finish(s.header), nil
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
