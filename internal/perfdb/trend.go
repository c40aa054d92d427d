package perfdb

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"pperf/internal/datasource"
	"pperf/internal/stats"
)

// Store-wide trend queries: where the diff plane asks "did this run
// change against that one?", the trend plane asks "how has this series
// moved over every stored run of the program?". For each metric-focus
// pair shared by all the runs, the per-run mean interior rate (the
// paper's export-and-calculate scalar, endpoints excluded) is fit
// against the run index with an ordinary-least-squares line, and the
// slope's confidence interval delivers the verdict (verdict.go): STABLE
// when it contains zero, DRIFTING-UP/-DOWN otherwise. A drifting series
// also gets first-bad-run attribution: the earliest run whose rate departs
// from the mean of the runs before it by more than the effect floor.

// TrendOptions parameterize a store-wide trend query.
type TrendOptions struct {
	// Alpha is the two-sided significance level of the slope test: 0.10,
	// 0.05 or 0.01 (0 means 0.05).
	Alpha float64
	// MinEffect suppresses drift verdicts whose |relative slope| (slope
	// per run over the mean rate) falls below it, and sets the
	// first-bad-run attribution threshold. 0 means DefaultTrendEffect.
	MinEffect float64
}

// DefaultTrendEffect is the relative departure a run must show over the
// runs before it to be named the first bad run.
const DefaultTrendEffect = 0.10

// SeriesTrend is one metric-focus pair's movement across the runs.
type SeriesTrend struct {
	Pair    datasource.Pair
	Verdict Verdict
	// Skipped holds the reason when Verdict == VerdictSkipped.
	Skipped string

	// Rates holds the per-run mean interior rates (units/s), one per run
	// in run order.
	Rates []float64
	// Slope is the fitted rate change per run index; CI its confidence
	// interval at the query's significance level.
	Slope float64
	CI    stats.Interval
	// RelSlope is Slope relative to the mean rate (NaN when the mean is
	// 0 and the slope is not).
	RelSlope float64

	// FirstBad names the changepoint run for a drifting series: the
	// earliest run whose rate departs from the mean of the preceding
	// runs, in the drift's direction, by more than the effect floor.
	// Empty when no single run crosses the floor (a smooth creep).
	FirstBad string
}

// TrendReport is the ranked outcome of a store-wide trend query.
type TrendReport struct {
	// Program is the queried program; Runs the index entries of its
	// stored runs, in store (run-index) order.
	Program string
	Runs    []RunMeta

	// Alpha and MinEffect echo the query's effective thresholds.
	Alpha     float64
	MinEffect float64

	// Series holds every pair in rank order: drifting first (largest
	// |RelSlope| first), then stable, then skipped.
	Series []SeriesTrend
}

// Drifting returns the series with a drift verdict, in rank order.
func (r *TrendReport) Drifting() []SeriesTrend {
	var out []SeriesTrend
	for _, s := range r.Series {
		if s.Verdict.significant() {
			out = append(out, s)
		}
	}
	return out
}

// Trend fits every shared metric-focus series across the views (one per
// stored run, in run order) and delivers per-series drift verdicts. At
// least three runs are required for the slope to carry an error estimate.
func Trend(views []*RunView, opts TrendOptions) (*TrendReport, error) {
	alpha, err := checkThresholds(opts.Alpha, opts.MinEffect)
	if err != nil {
		return nil, err
	}
	if len(views) < 3 {
		return nil, fmt.Errorf("perfdb: trend needs at least 3 runs, have %d", len(views))
	}
	rep := &TrendReport{Alpha: alpha, MinEffect: cmp.Or(opts.MinEffect, DefaultTrendEffect)}
	for _, v := range views {
		rep.Runs = append(rep.Runs, v.Meta)
		rep.Program = cmp.Or(rep.Program, v.Meta.Program)
	}
	// Pair universe, in first-seen order (rank sorts the series): everything
	// any run enabled, keyed for alignment; pairs missing from some runs are
	// reported, not silently dropped.
	runs := map[datasource.Pair]int{}
	var pairs []datasource.Pair
	for _, v := range views {
		for _, p := range v.Pairs() {
			k := p.Canon()
			if runs[k]++; runs[k] == 1 {
				pairs = append(pairs, p)
			}
		}
	}
	for _, p := range pairs {
		st := SeriesTrend{Pair: p}
		if n := runs[p.Canon()]; n < len(views) {
			st.Verdict, st.Skipped = VerdictSkipped, fmt.Sprintf("collected in only %d of %d runs", n, len(views))
			rep.Series = append(rep.Series, st)
			continue
		}
		for _, v := range views {
			st.Rates = append(st.Rates, v.SeriesFor(p).Histogram().MeanRateExcludingEnds())
		}
		fit, err := stats.LinearTrend(st.Rates, rep.Alpha)
		if err != nil {
			st.Verdict, st.Skipped = VerdictSkipped, err.Error()
			rep.Series = append(rep.Series, st)
			continue
		}
		rel, out := judge(fit.Significant, fit.Slope, stats.Mean(st.Rates), rep.MinEffect)
		st.Slope, st.CI, st.RelSlope, st.Verdict = fit.Slope, fit.CI, rel, trendVerdicts[out]
		if out != steady {
			if i := firstBad(st.Rates, out == rising, rep.MinEffect); i > 0 {
				st.FirstBad = rep.Runs[i].ID
			}
		}
		rep.Series = append(rep.Series, st)
	}
	rank(rep.Series)
	return rep, nil
}

// firstBad returns the index of the earliest run whose rate departs from
// the mean of the preceding runs, in the drift's direction, by more than
// the relative floor — the changepoint attribution. 0 means no single
// run crossed the floor.
func firstBad(rates []float64, up bool, floor float64) int {
	sum := rates[0]
	for i := 1; i < len(rates); i++ {
		mean := sum / float64(i)
		dev := rates[i] - mean
		if !up {
			dev = -dev
		}
		switch {
		case mean != 0 && dev/math.Abs(mean) > floor:
			return i
		case mean == 0 && dev > 0:
			// Departing from an all-zero prefix: any movement in the
			// drift's direction is infinite relative change.
			return i
		}
		sum += rates[i]
	}
	return 0
}

// describe renders one series as a report line.
func (s SeriesTrend) describe() string {
	name := fmt.Sprintf("%s @ %s", s.Pair.Metric, s.Pair.Focus)
	if s.Skipped != "" {
		return fmt.Sprintf("%-13s %s: %s", s.Verdict, name, s.Skipped)
	}
	line := fmt.Sprintf("%-13s %s: %.6g/s -> %.6g/s (slope %+.6g/s per run, %s of mean, CI %s)",
		s.Verdict, name, s.Rates[0], s.Rates[len(s.Rates)-1], s.Slope, relString(s.RelSlope), s.CI)
	if s.FirstBad != "" {
		line += fmt.Sprintf(" first-bad %s", s.FirstBad)
	}
	return line
}

func (s SeriesTrend) row() (Verdict, float64, datasource.Pair) {
	return s.Verdict, s.RelSlope, s.Pair
}

// Render produces the ranked, byte-deterministic trend report.
func (r *TrendReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfdb trend: %s over %d runs\n", orDash(r.Program), len(r.Runs))
	ids := make([]string, len(r.Runs))
	for i, m := range r.Runs {
		ids[i] = runTitle(m)
	}
	fmt.Fprintf(&b, "  runs: %s\n", strings.Join(ids, ", "))
	fmt.Fprintf(&b, "  alpha: %g, min-effect: %g\n", r.Alpha, r.MinEffect)
	if len(r.Series) == 0 {
		b.WriteString("no collected metric-focus pairs\n")
	}
	for _, s := range r.Series {
		b.WriteString("  " + s.describe() + "\n")
	}
	nDrift := len(r.Drifting())
	fmt.Fprintf(&b, "%d series fit, %d drifting\n", len(r.Series), nDrift)
	return b.String()
}
