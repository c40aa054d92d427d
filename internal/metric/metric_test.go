package metric

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pperf/internal/sim"
)

func TestHistogramBasicBinning(t *testing.T) {
	h := NewHistogram(10, sim.Second)
	h.Add(sim.Time(0), 5)
	h.Add(sim.Time(1500*sim.Millisecond), 3)
	h.Add(sim.Time(1700*sim.Millisecond), 2)
	if h.Bin(0) != 5 || h.Bin(1) != 5 {
		t.Errorf("bins = %v %v", h.Bin(0), h.Bin(1))
	}
	if h.NumFilled() != 2 {
		t.Errorf("filled = %d", h.NumFilled())
	}
	if h.Total() != 10 {
		t.Errorf("total = %v", h.Total())
	}
}

func TestHistogramFoldDoublesWidth(t *testing.T) {
	h := NewHistogram(4, sim.Second)
	for i := 0; i < 4; i++ {
		h.Add(sim.Time(i)*sim.Time(sim.Second), 1)
	}
	// t=4s is out of range (4 bins × 1s) → one fold.
	h.Add(sim.Time(4*sim.Second), 1)
	if h.Folds() != 1 {
		t.Fatalf("folds = %d", h.Folds())
	}
	if h.BinWidth() != 2*sim.Second {
		t.Errorf("width = %v", h.BinWidth())
	}
	// Old bins pair-summed: [1,1,1,1] → [2,2,0,0]; new value at bin 2.
	if h.Bin(0) != 2 || h.Bin(1) != 2 || h.Bin(2) != 1 {
		t.Errorf("bins = %v %v %v", h.Bin(0), h.Bin(1), h.Bin(2))
	}
	if h.Total() != 5 {
		t.Errorf("total = %v", h.Total())
	}
}

func TestHistogramRepeatedFolding(t *testing.T) {
	h := NewHistogram(8, 200*sim.Millisecond)
	// Fill out to 100 seconds: needs several folds; paper granularity grows
	// 0.2 → 0.4 → 0.8 …
	for i := 0; i < 1000; i++ {
		h.Add(sim.Time(i)*sim.Time(100*sim.Millisecond), 1)
	}
	if h.Total() != 1000 {
		t.Errorf("total = %v (folding must conserve mass)", h.Total())
	}
	if h.BinWidth() <= 200*sim.Millisecond {
		t.Errorf("width = %v, should have grown", h.BinWidth())
	}
}

func TestMeanRateExcludingEnds(t *testing.T) {
	h := NewHistogram(100, sim.Second)
	// Partial first and last bins are the error source the paper works
	// around; interior bins carry 10/s.
	h.Add(sim.Time(900*sim.Millisecond), 1) // partial start
	for i := 1; i < 9; i++ {
		h.Add(sim.Time(i)*sim.Time(sim.Second), 10)
	}
	h.Add(sim.Time(9*sim.Second), 2) // partial end
	rate := h.MeanRateExcludingEnds()
	if rate != 10 {
		t.Errorf("rate = %v, want 10", rate)
	}
	// The paper's total estimate comes out slightly under the true value.
	est := h.TotalViaMeanRate(9*sim.Second + 100*sim.Millisecond)
	if est <= 0 || math.Abs(est-91) > 1e-9 {
		t.Errorf("estimate = %v", est)
	}
}

func TestActiveRunTimeAndInteriorTotal(t *testing.T) {
	h := NewHistogram(100, sim.Second)
	for i := 0; i < 10; i++ {
		h.Add(sim.Time(i)*sim.Time(sim.Second), 4)
	}
	if got := h.ActiveRunTime(); got != 8*sim.Second { // 10 filled minus 2 ends
		t.Errorf("active runtime = %v", got)
	}
	if got := h.InteriorTotal(); got != 32 {
		t.Errorf("interior total = %v", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(10, sim.Second)
	if h.Render(20) != "(empty)" {
		t.Error("empty render")
	}
	h.Add(0, 1)
	h.Add(sim.Time(5*sim.Second), 10)
	s := h.Render(20)
	if len([]rune(s)) != 20 {
		t.Errorf("render width = %d", len([]rune(s)))
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(2.5)
	if c.Value() != 7.5 || c.Sample(0, 0) != 7.5 {
		t.Errorf("counter = %v", c.Value())
	}
	c.Set(1)
	if c.Value() != 1 {
		t.Errorf("after Set: %v", c.Value())
	}
}

func TestWallTimerAccumulates(t *testing.T) {
	var w WallTimer
	w.Start(sim.Time(1 * sim.Second))
	w.Stop(sim.Time(3 * sim.Second))
	w.Start(sim.Time(10 * sim.Second))
	w.Stop(sim.Time(11 * sim.Second))
	if got := w.Sample(sim.Time(20*sim.Second), 0); got != 3 {
		t.Errorf("wall = %v, want 3s", got)
	}
}

func TestWallTimerRunningIncluded(t *testing.T) {
	var w WallTimer
	w.Start(sim.Time(1 * sim.Second))
	if got := w.Sample(sim.Time(5*sim.Second), 0); got != 4 {
		t.Errorf("running sample = %v, want 4", got)
	}
}

func TestWallTimerNesting(t *testing.T) {
	var w WallTimer
	w.Start(sim.Time(0))
	w.Start(sim.Time(1 * sim.Second)) // recursive entry
	w.Stop(sim.Time(2 * sim.Second))
	w.Stop(sim.Time(4 * sim.Second))
	if got := w.Sample(sim.Time(10*sim.Second), 0); got != 4 {
		t.Errorf("nested wall = %v, want 4 (outermost interval only)", got)
	}
}

func TestWallTimerStopWithoutStart(t *testing.T) {
	var w WallTimer
	w.Stop(sim.Time(5 * sim.Second)) // must not panic or go negative
	if got := w.Sample(sim.Time(6*sim.Second), 0); got != 0 {
		t.Errorf("got %v", got)
	}
}

func TestProcessTimerIgnoresBlockedTime(t *testing.T) {
	var p ProcessTimer
	p.Start(2 * sim.Second) // cpu position at entry
	// Process blocks: wall advances, cpu doesn't.
	if got := p.Sample(sim.Time(100*sim.Second), 2*sim.Second); got != 0 {
		t.Errorf("blocked process timer = %v, want 0", got)
	}
	p.Stop(5 * sim.Second)
	if got := p.Sample(sim.Time(200*sim.Second), 5*sim.Second); got != 3 {
		t.Errorf("process timer = %v, want 3", got)
	}
}

// Property: folding conserves total mass and never loses the max bin index.
func TestPropertyFoldConservesMass(t *testing.T) {
	f := func(points []uint16) bool {
		h := NewHistogram(16, 100*sim.Millisecond)
		total := 0.0
		for _, p := range points {
			t := sim.Time(p) * sim.Time(10*sim.Millisecond)
			h.Add(t, 1)
			total++
		}
		return math.Abs(h.Total()-total) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a wall timer's samples are monotone while running.
func TestPropertyTimerMonotone(t *testing.T) {
	f := func(steps []uint8) bool {
		var w WallTimer
		now := sim.Time(0)
		w.Start(now)
		last := -1.0
		for _, s := range steps {
			now = now.Add(sim.Duration(s) * sim.Millisecond)
			v := w.Sample(now, 0)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBinOutOfRange(t *testing.T) {
	h := NewHistogram(4, sim.Second)
	if h.Bin(-1) != 0 || h.Bin(99) != 0 {
		t.Error("out-of-range bins must read 0")
	}
	h.Add(-5, 3) // negative times clamp to bin 0
	if h.Bin(0) != 3 {
		t.Errorf("bin0 = %v", h.Bin(0))
	}
}

func TestHistogramStringAndFoldsCount(t *testing.T) {
	h := NewHistogram(2, sim.Second)
	h.Add(sim.Time(3*sim.Second), 1) // forces folding
	s := h.String()
	if !strings.Contains(s, "fold") {
		t.Errorf("string = %q", s)
	}
}

func TestMeanRateWithFewBins(t *testing.T) {
	h := NewHistogram(10, sim.Second)
	h.Add(sim.Time(500*sim.Millisecond), 7)
	// Only one filled bin: fall back includes it rather than dividing by 0.
	if r := h.MeanRateExcludingEnds(); r != 7 {
		t.Errorf("rate = %v", r)
	}
	empty := NewHistogram(10, sim.Second)
	if empty.MeanRateExcludingEnds() != 0 {
		t.Error("empty rate should be 0")
	}
}
