package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138) > 0.01 {
		t.Errorf("stddev = %v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate cases should be 0")
	}
}

// t95 is the two-sided 95% critical value.
func t95(df int) float64 {
	v, err := TCritical(df, 0.05)
	if err != nil {
		panic(err)
	}
	return v
}

// meanCI95 is the 95% confidence interval of the mean.
func meanCI95(xs []float64) Interval {
	iv, err := MeanCI(xs, 0.05)
	if err != nil {
		panic(err)
	}
	return iv
}

func TestTCritical(t *testing.T) {
	if v := t95(1); v != 12.706 {
		t.Errorf("t(1) = %v", v)
	}
	if v := t95(30); v != 2.042 {
		t.Errorf("t(30) = %v", v)
	}
	if v := t95(1000); v != 1.96 {
		t.Errorf("t(1000) = %v", v)
	}
	if !math.IsInf(t95(0), 1) {
		t.Error("t(0) should be +inf")
	}
}

func TestMeanCI95(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	ci := meanCI95(xs)
	if ci.Lo != 10 || ci.Hi != 10 {
		t.Errorf("zero-variance CI = %v", ci)
	}
	ys := []float64{9, 10, 11, 10, 9, 11, 10, 10}
	ci2 := meanCI95(ys)
	if !ci2.Contains(10) || ci2.Contains(12) {
		t.Errorf("CI = %v", ci2)
	}
}

func TestPairedDiffNotSignificant(t *testing.T) {
	a := []float64{100, 101, 99, 100.5, 99.5}
	b := []float64{100.2, 100.4, 99.4, 100.1, 99.9} // noise around a
	res, err := PairedDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Errorf("noise should not be significant: %+v", res)
	}
}

func TestPairedDiffSignificant(t *testing.T) {
	a := []float64{100, 101, 99, 100, 100}
	b := []float64{90, 91, 89.5, 90.2, 90.1} // consistent 10-unit offset
	res, err := PairedDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Errorf("consistent offset should be significant: %+v", res)
	}
	if math.Abs(res.RelDiff-0.1) > 0.01 {
		t.Errorf("relative diff = %v, want ≈0.1", res.RelDiff)
	}
}

func TestPairedDiffErrors(t *testing.T) {
	if _, err := PairedDiff([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := PairedDiff(nil, nil); err == nil {
		t.Error("empty should error")
	}
}

// Property: the 95% CI of the mean always contains the sample mean, and
// widens with variance.
func TestPropertyCIContainsMean(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		ci := meanCI95(xs)
		return ci.Contains(Mean(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
