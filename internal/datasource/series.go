package datasource

import (
	"sort"

	"pperf/internal/metric"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// Series is the collected data of one enabled metric-focus pair: the
// aggregated histogram plus per-process histograms. It is filled by a
// View's ingest methods — identically whether the samples arrive live from
// daemons or out of a recorded session archive.
type Series struct {
	Metric  string
	Focus   resource.Focus
	agg     *metric.Histogram
	perProc map[string]*metric.Histogram
	lastT   sim.Time
}

// LastSampleTime returns the time of the newest ingested sample, so
// consumers can align rate computations with actual data coverage.
func (s *Series) LastSampleTime() sim.Time { return s.lastT }

// Histogram returns the focus-aggregated histogram.
func (s *Series) Histogram() *metric.Histogram { return s.agg }

// ProcHistogram returns one process's histogram (nil if that process never
// reported).
func (s *Series) ProcHistogram(proc string) *metric.Histogram { return s.perProc[proc] }

// Procs lists the processes that have reported samples, sorted.
func (s *Series) Procs() []string {
	out := make([]string, 0, len(s.perProc))
	for p := range s.perProc {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Total returns the cumulative metric value across all samples.
func (s *Series) Total() float64 { return s.agg.Total() }

// SeriesKey is the registry key of a metric-focus pair.
func SeriesKey(m string, f resource.Focus) string { return m + "\x00" + f.Key() }

// Pair names one metric-focus pair: what a daemon instruments, what the
// front end keeps enabled, what a stored run collected.
type Pair struct {
	Metric string
	Focus  resource.Focus
}

// Key returns the pair's registry key — its identity in a set of pairs and
// the unit of cross-run alignment.
func (p Pair) Key() string { return SeriesKey(p.Metric, p.Focus) }
