// Package stats provides the small statistical toolkit §5.2.1.3 uses to
// compare the tool's RMA measurements against the Presta benchmark's own
// numbers: means, standard deviations, and confidence intervals on the mean
// of paired differences ("we determined whether differences in the
// measurements were statistically significant by inspecting the confidence
// interval of the mean of the differences of the two sets of measurements").
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// tCrit95 holds two-sided 95% Student-t critical values for df 1..30;
// larger dfs use the normal approximation.
var tCrit95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit90 and tCrit99 are the two-sided 90% and 99% tables over the same
// df range, for callers that loosen or tighten the significance level.
var tCrit90 = []float64{
	6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
}

var tCrit99 = []float64{
	63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
	3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
	2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
}

// alphaTables maps a supported two-sided significance level to its
// critical-value table and normal-approximation tail value.
var alphaTables = map[float64]struct {
	table []float64
	z     float64
}{
	0.10: {tCrit90, 1.645},
	0.05: {tCrit95, 1.96},
	0.01: {tCrit99, 2.576},
}

// TCritical returns the two-sided Student-t critical value at the given
// significance level (alpha 0.10, 0.05 or 0.01; 0 means 0.05). An
// unsupported alpha is an error — the tables are fixed, not interpolated.
func TCritical(df int, alpha float64) (float64, error) {
	if alpha == 0 {
		alpha = 0.05
	}
	at, ok := alphaTables[alpha]
	if !ok {
		return 0, fmt.Errorf("stats: unsupported alpha %g (supported: 0.10, 0.05, 0.01)", alpha)
	}
	if df <= 0 {
		return math.Inf(1), nil
	}
	if df <= len(at.table) {
		return at.table[df-1], nil
	}
	return at.z, nil
}

// Interval is a confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// String formats the interval.
func (iv Interval) String() string { return fmt.Sprintf("[%.6g, %.6g]", iv.Lo, iv.Hi) }

// MeanCI returns the confidence interval of the mean at the given
// significance level (see TCritical for the supported alphas).
func MeanCI(xs []float64, alpha float64) (Interval, error) {
	n := len(xs)
	m := Mean(xs)
	tc, err := TCritical(n-1, alpha)
	if err != nil {
		return Interval{}, err
	}
	if n < 2 {
		return Interval{m, m}, nil
	}
	half := tc * StdDev(xs) / math.Sqrt(float64(n))
	return Interval{m - half, m + half}, nil
}

// PairedResult is the outcome of a paired-difference comparison.
type PairedResult struct {
	MeanDiff float64
	CI       Interval
	// Significant is true when the CI of the mean difference excludes
	// zero — the §5.2.1.3 criterion.
	Significant bool
	// RelDiff is the mean difference relative to the mean of the first
	// sample (the paper reports ~0.6% relative differences).
	RelDiff float64
	N       int
}

// PairedDiff compares paired measurements a[i] vs b[i] at the 95% level.
func PairedDiff(a, b []float64) (*PairedResult, error) {
	return PairedDiffAlpha(a, b, 0.05)
}

// PairedDiffAlpha is PairedDiff at an explicit significance level (see
// TCritical for the supported alphas; 0 means 0.05).
func PairedDiffAlpha(a, b []float64, alpha float64) (*PairedResult, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("stats: paired samples differ in length: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return nil, fmt.Errorf("stats: empty samples")
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	ci, err := MeanCI(diffs, alpha)
	if err != nil {
		return nil, err
	}
	res := &PairedResult{
		MeanDiff:    Mean(diffs),
		CI:          ci,
		Significant: !ci.Contains(0),
		N:           len(a),
	}
	if m := Mean(a); m != 0 {
		res.RelDiff = res.MeanDiff / m
	}
	return res, nil
}
