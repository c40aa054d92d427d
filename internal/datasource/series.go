package datasource

import (
	"cmp"
	"slices"
	"strings"

	"pperf/internal/metric"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// Series is the collected data of one enabled metric-focus pair: the
// aggregated histogram plus per-process histograms. It is filled by a
// View's ingest methods — identically whether the samples arrive live from
// daemons or out of a recorded session archive.
type Series struct {
	Metric string
	Focus  resource.Focus
	agg    *metric.Histogram
	procs  []string            // reporting processes, kept sorted as first samples arrive
	hists  []*metric.Histogram // hists[i] is procs[i]'s histogram
	lastT  sim.Time
}

// LastSampleTime returns the time of the newest ingested sample, so
// consumers can align rate computations with actual data coverage.
func (s *Series) LastSampleTime() sim.Time { return s.lastT }

// Histogram returns the focus-aggregated histogram.
func (s *Series) Histogram() *metric.Histogram { return s.agg }

// ProcHistogram returns one process's histogram (nil if that process never
// reported).
func (s *Series) ProcHistogram(proc string) *metric.Histogram {
	if i, ok := slices.BinarySearch(s.procs, proc); ok {
		return s.hists[i]
	}
	return nil
}

// Procs lists the processes that have reported samples, sorted. The slice is
// the series' own: read it, do not keep or modify it.
func (s *Series) Procs() []string { return slices.Clip(s.procs) }

// Total returns the cumulative metric value across all samples.
func (s *Series) Total() float64 { return s.agg.Total() }

// Pair names one metric-focus pair: what a daemon instruments, what the
// front end keeps enabled, what a stored run collected. A pair is a value:
// two pairs are the same pair exactly when their canonical forms are ==, so
// the canonical pair itself keys the series registry, the replay enable
// index and cross-run alignment. Canon is applied where a pair is looked up
// or compared; what is stored and recorded keeps the focus the caller gave.
type Pair struct {
	Metric string
	Focus  resource.Focus
}

// Canon returns the pair with its focus in canonical form.
func (p Pair) Canon() Pair { p.Focus = p.Focus.Canon(); return p }

// ComparePairs orders pairs by metric, then by the canonical focus's Code,
// Machine and SyncObject paths: negative when a sorts first, zero for the
// same pair.
func ComparePairs(a, b Pair) int {
	f, g := a.Focus.Canon(), b.Focus.Canon()
	return cmp.Or(strings.Compare(a.Metric, b.Metric), strings.Compare(f.CodePath, g.CodePath),
		strings.Compare(f.MachinePath, g.MachinePath), strings.Compare(f.SyncPath, g.SyncPath))
}
