package stats

import (
	"math"
	"testing"
)

func TestLinearTrendExactLine(t *testing.T) {
	fit, err := LinearTrend([]float64{1, 2, 3, 4, 5}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 1 intercept 1", fit)
	}
	if !fit.Significant {
		t.Errorf("noise-free line not significant: %+v", fit)
	}
}

func TestLinearTrendFlatIsStable(t *testing.T) {
	fit, err := LinearTrend([]float64{2, 2, 2, 2}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Significant {
		t.Errorf("flat series: %+v", fit)
	}
}

func TestLinearTrendLevelShiftAlphaSensitivity(t *testing.T) {
	// A 2-of-5 level shift has t = 3.0 regardless of magnitude: below the
	// 95% critical value for df=3 (3.182), above the 90% one (2.353).
	ys := []float64{1, 1, 1, 2, 2}
	at95, err := LinearTrend(ys, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	at90, err := LinearTrend(ys, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if at95.Significant {
		t.Errorf("df=3 level shift significant at 95%%: %+v", at95)
	}
	if !at90.Significant {
		t.Errorf("df=3 level shift not significant at 90%%: %+v", at90)
	}
}

func TestLinearTrendErrors(t *testing.T) {
	if _, err := LinearTrend([]float64{1, 2}, 0.05); err == nil {
		t.Error("2-point trend accepted")
	}
	if _, err := LinearTrend([]float64{1, 2, 3}, 0.042); err == nil {
		t.Error("unsupported alpha accepted")
	}
}

func TestTCriticalAlphas(t *testing.T) {
	for _, tc := range []struct {
		df    int
		alpha float64
		want  float64
	}{
		{3, 0.05, 3.182}, {3, 0.10, 2.353}, {3, 0.01, 5.841},
		{100, 0.05, 1.96}, {100, 0.10, 1.645}, {100, 0.01, 2.576},
		{3, 0, 3.182}, // 0 defaults to 0.05
	} {
		got, err := TCritical(tc.df, tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("TCritical(%d, %g) = %g, want %g", tc.df, tc.alpha, got, tc.want)
		}
	}
	if _, err := TCritical(3, 0.2); err == nil {
		t.Error("alpha 0.2 accepted")
	}
	// Mean 2, standard deviation 1: the half-width is t(2) / sqrt(3).
	half := 4.303 / math.Sqrt(3)
	for _, alpha := range []float64{0.05, 0} {
		if iv, err := MeanCI([]float64{1, 2, 3}, alpha); err != nil || iv != (Interval{2 - half, 2 + half}) {
			t.Errorf("MeanCI(%g) = %v, %v; want [2 ± %g]", alpha, iv, err, half)
		}
	}
}
