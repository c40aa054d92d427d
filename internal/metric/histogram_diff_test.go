package metric

import (
	"math"
	"math/rand"
	"testing"

	"pperf/internal/sim"
)

// refHistogram is the histogram as it was before bins grew on demand: the
// whole array allocated up front, every method reading all of it. It is kept
// here as the reference the on-demand Histogram must match bit for bit.
type refHistogram struct {
	bins     []float64
	binWidth sim.Duration
	folds    int
	lastBin  int
	any      bool
}

func newRefHistogram(numBins int, binWidth sim.Duration) *refHistogram {
	if numBins <= 0 {
		numBins = DefaultNumBins
	}
	if binWidth <= 0 {
		binWidth = DefaultBinWidth
	}
	return &refHistogram{bins: make([]float64, numBins), binWidth: binWidth}
}

func (h *refHistogram) add(t sim.Time, v float64) {
	if t < 0 {
		t = 0
	}
	for int(sim.Duration(t)/h.binWidth) >= len(h.bins) {
		n := len(h.bins)
		for i := 0; i < n/2; i++ {
			h.bins[i] = h.bins[2*i] + h.bins[2*i+1]
		}
		for i := n / 2; i < n; i++ {
			h.bins[i] = 0
		}
		h.binWidth *= 2
		h.lastBin /= 2
		h.folds++
	}
	idx := int(sim.Duration(t) / h.binWidth)
	h.bins[idx] += v
	if idx > h.lastBin {
		h.lastBin = idx
	}
	h.any = true
}

func (h *refHistogram) numFilled() int {
	if !h.any {
		return 0
	}
	return h.lastBin + 1
}

func (h *refHistogram) total() float64 {
	s := 0.0
	for _, v := range h.bins {
		s += v
	}
	return s
}

func (h *refHistogram) interior() (sum float64, nonZero int) {
	for i := 1; i < h.numFilled()-1; i++ {
		sum += h.bins[i]
		if h.bins[i] != 0 {
			nonZero++
		}
	}
	return sum, nonZero
}

func (h *refHistogram) meanRateExcludingEnds() float64 {
	n := h.numFilled()
	if n == 0 {
		return 0
	}
	if n <= 2 {
		return h.total() / (float64(n) * h.binWidth.Seconds())
	}
	s, _ := h.interior()
	return s / (float64(n-2) * h.binWidth.Seconds())
}

func (h *refHistogram) render(width int) string {
	n := h.numFilled()
	if n == 0 {
		return "(empty)"
	}
	cells := make([]float64, width)
	for i := 0; i < n; i++ {
		cells[i*width/n] += h.bins[i]
	}
	max := 0.0
	for _, v := range cells {
		max = math.Max(max, v)
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	out := make([]rune, width)
	for i, v := range cells {
		lvl := 0
		if max > 0 {
			lvl = int(v / max * float64(len(levels)-1))
		}
		out[i] = levels[lvl]
	}
	return string(out)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Property: over seeded random Add streams — odd and tiny bin counts, times
// far past the bound, a first sample several folds out, negative times,
// negative and zero values — the on-demand Histogram answers every query
// exactly as the preallocating one did.
func TestHistogramMatchesPreallocatedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		numBins := []int{1, 2, 3, 7, 8, 16, 17, 100, 1000}[rng.Intn(9)]
		width := sim.Duration(1+rng.Intn(50)) * sim.Millisecond
		h, ref := NewHistogram(numBins, width), newRefHistogram(numBins, width)
		span := float64(numBins) * float64(width)
		signed := trial%2 == 1
		adds := rng.Intn(400)
		now := 0.0
		if rng.Intn(3) == 0 {
			now = span * float64(1+rng.Intn(40)) // the first sample is several folds out
		}
		check := func(step int) {
			t.Helper()
			fail := func(what string, got, want any) {
				t.Fatalf("trial %d (bins %d, width %v) after %d adds: %s = %v, reference %v", trial, numBins, width, step, what, got, want)
			}
			if h.NumFilled() != ref.numFilled() {
				fail("NumFilled", h.NumFilled(), ref.numFilled())
			}
			if h.folds != ref.folds || h.BinWidth() != ref.binWidth {
				fail("Folds/BinWidth", []any{h.folds, h.BinWidth()}, []any{ref.folds, ref.binWidth})
			}
			if !sameBits(h.Total(), ref.total()) {
				fail("Total", h.Total(), ref.total())
			}
			for i := -1; i <= numBins; i++ {
				want := 0.0
				if i >= 0 && i < numBins {
					want = ref.bins[i]
				}
				if !sameBits(h.Bin(i), want) {
					fail("Bin", h.Bin(i), want)
				}
			}
			vals, rates := h.Values(), h.Rates()
			if len(vals) != ref.numFilled() || len(rates) != ref.numFilled() {
				fail("len(Values)", len(vals), ref.numFilled())
			}
			for i := range vals {
				if !sameBits(vals[i], ref.bins[i]) || !sameBits(rates[i], ref.bins[i]/ref.binWidth.Seconds()) {
					fail("Values/Rates", []float64{vals[i], rates[i]}, ref.bins[i])
				}
			}
			if !sameBits(h.MeanRateExcludingEnds(), ref.meanRateExcludingEnds()) {
				fail("MeanRateExcludingEnds", h.MeanRateExcludingEnds(), ref.meanRateExcludingEnds())
			}
			sum, nonZero := ref.interior()
			if !sameBits(h.InteriorTotal(), sum) {
				fail("InteriorTotal", h.InteriorTotal(), sum)
			}
			if h.ActiveRunTime() != sim.Duration(nonZero)*ref.binWidth {
				fail("ActiveRunTime", h.ActiveRunTime(), sim.Duration(nonZero)*ref.binWidth)
			}
			// Render indexes its glyphs by value, so it is defined for the
			// non-negative bins real metrics produce.
			if !signed && h.Render(13) != ref.render(13) {
				fail("Render", h.Render(13), ref.render(13))
			}
		}
		check(0)
		for i := 1; i <= adds; i++ {
			switch rng.Intn(10) {
			case 0:
				now += span * rng.Float64() * 3 // jump past the bound
			case 1:
				now -= span * rng.Float64() // samples may arrive out of order
			default:
				now += float64(width) * rng.Float64() * 2
			}
			v := rng.NormFloat64() * 10
			if rng.Intn(8) == 0 {
				v = 0
			}
			if !signed {
				v = math.Abs(v)
			}
			h.Add(sim.Time(now), v)
			ref.add(sim.Time(now), v)
			if i%7 == 0 || i == adds {
				check(i)
			}
		}
	}
}

// The array is allocated on demand: a histogram that has seen one early
// sample holds a fraction of its bound, and one driven to the bound holds
// exactly numBins and never more.
func TestHistogramGrowsToItsBound(t *testing.T) {
	h := NewHistogram(1000, sim.Millisecond)
	if len(h.bins) != 0 {
		t.Errorf("fresh histogram holds %d bins, want none", len(h.bins))
	}
	h.Add(0, 1)
	if len(h.bins) == 0 || len(h.bins) > 1000/4 {
		t.Errorf("after one early sample the histogram holds %d bins", len(h.bins))
	}
	for i := 0; i < 5000; i++ {
		h.Add(sim.Time(i)*sim.Time(sim.Millisecond), 1)
		if len(h.bins) > 1000 {
			t.Fatalf("histogram grew to %d bins past its bound of 1000", len(h.bins))
		}
	}
	if len(h.bins) != 1000 || h.folds == 0 || h.Total() != 5001 {
		t.Errorf("driven past the bound: %d bins, %d folds, total %v", len(h.bins), h.folds, h.Total())
	}
}
