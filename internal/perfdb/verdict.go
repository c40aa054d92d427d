package perfdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pperf/internal/datasource"
	"pperf/internal/stats"
)

// The verdict core both analytics reports share. `db diff` and `db trend`
// compute different statistics — the mean paired per-bin difference of two
// runs, the OLS slope of one series across many — and judge both with the
// paper's §5.2.1.3 rule: a statistic whose confidence interval excludes zero
// is significant, unless its effect relative to a baseline falls under the
// query's floor. The metrics measure costs — wait fractions, transferred
// bytes, operation counts — so a significant rise is the bad direction
// (REGRESSION, DRIFTING-UP).

// Verdict classifies one report row: a compared pair of a diff or a fitted
// series of a trend.
type Verdict string

const (
	// VerdictRegression: the rate rose and the CI excludes zero.
	VerdictRegression Verdict = "REGRESSION"
	// VerdictImprovement: the rate fell and the CI excludes zero.
	VerdictImprovement Verdict = "improvement"
	// VerdictUnchanged: the CI contains zero.
	VerdictUnchanged Verdict = "unchanged"
	// TrendUp: the rate is rising significantly across the runs.
	TrendUp Verdict = "DRIFTING-UP"
	// TrendDown: the rate is falling significantly across the runs.
	TrendDown Verdict = "DRIFTING-DOWN"
	// TrendStable: the slope's CI contains zero.
	TrendStable Verdict = "STABLE"
	// VerdictSkipped: the row could not be judged (reason in Skipped).
	VerdictSkipped Verdict = "skipped"
	// VerdictNotComparable: a requested window excludes the pair's data,
	// so the comparison is undefined there (reason in Skipped). Reported
	// rather than dropped so a windowed report accounts for every pair.
	VerdictNotComparable Verdict = "NOT-COMPARABLE"
)

// significant reports whether the verdict flags a change, either way.
func (v Verdict) significant() bool {
	return v == VerdictRegression || v == VerdictImprovement || v == TrendUp || v == TrendDown
}

// outcome is what judge finds: no significant change, a rise or a fall.
type outcome int

const (
	steady outcome = iota
	rising
	falling
)

// diffVerdicts and trendVerdicts name each outcome in their report.
var (
	diffVerdicts  = [...]Verdict{steady: VerdictUnchanged, rising: VerdictRegression, falling: VerdictImprovement}
	trendVerdicts = [...]Verdict{steady: TrendStable, rising: TrendUp, falling: TrendDown}
)

// judge applies the rule to a statistic est whose test came out
// significant or not. It returns est relative to baseline — NaN when a zero
// baseline moved, an infinite change no floor suppresses — and the outcome:
// steady when the test failed or the relative effect falls under minEffect.
func judge(significant bool, est, baseline, minEffect float64) (rel float64, out outcome) {
	switch {
	case baseline != 0:
		rel = est / baseline
	case est != 0:
		rel = math.NaN()
	}
	switch {
	case !significant || math.Abs(rel) < minEffect:
		return rel, steady
	case est > 0:
		return rel, rising
	}
	return rel, falling
}

// checkThresholds validates a query's significance level (0.10, 0.05 or
// 0.01) and effect floor, and returns the level with 0 meaning 0.05, the
// paper's.
func checkThresholds(alpha, minEffect float64) (float64, error) {
	if _, err := stats.TCritical(1, alpha); err != nil {
		return 0, fmt.Errorf("perfdb: %v", err)
	}
	if minEffect < 0 {
		return 0, fmt.Errorf("perfdb: negative min-effect %g", minEffect)
	}
	return cmp.Or(alpha, 0.05), nil
}

// ranked is a report row: a SeriesDelta or a SeriesTrend.
type ranked interface {
	row() (Verdict, float64, datasource.Pair)
}

// rank orders a report's rows: significant ones first by |relative effect|
// descending (NaN ranks above every finite effect), then the flat ones, then
// the skipped and not-comparable ones; pair order breaks every tie, so the
// report is byte-deterministic.
func rank[T ranked](rows []T) {
	slices.SortStableFunc(rows, func(a, b T) int {
		va, ra, pa := a.row()
		vb, rb, pb := b.row()
		return cmp.Or(cmp.Compare(rankOf(va, ra), rankOf(vb, rb)), datasource.ComparePairs(pa, pb))
	})
}

// rankOf places a row on rank's scale: a significant row at minus its
// |relative effect| (NaN at -Inf), a flat row at 1 and any other at 2.
func rankOf(v Verdict, rel float64) float64 {
	switch {
	case v.significant() && math.IsNaN(rel):
		return math.Inf(-1)
	case v.significant():
		return -math.Abs(rel)
	case v == VerdictUnchanged || v == TrendStable:
		return 1
	}
	return 2
}

// relString renders a relative effect as a signed percentage, "n/a" when
// it is undefined.
func relString(rel float64) string {
	if math.IsNaN(rel) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", rel*100)
}
