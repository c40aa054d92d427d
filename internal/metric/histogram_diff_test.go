package metric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pperf/internal/sim"
)

// refHistogram is the histogram as it was before it stored only its
// non-zero span: the whole array allocated up front, every method reading all
// of it. It is kept here as the reference the span-storing Histogram must
// match bit for bit; its one change since is the fold of an odd bin count,
// whose last bin now carries over instead of being zeroed.
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
		n, half := len(h.bins), (len(h.bins)+1)/2
		for i := 0; i < half; i++ {
			odd := 0.0 // an odd count's last bin has no partner
			if 2*i+1 < n {
				odd = h.bins[2*i+1]
			}
			h.bins[i] = h.bins[2*i] + odd
		}
		for i := half; i < n; i++ {
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

func (h *refHistogram) string() string {
	return fmt.Sprintf("histogram(%d bins @ %v, %d folds, total %.6g)", h.numFilled(), h.binWidth, h.folds, h.total())
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
// negative and zero values, streams that open with a run of zero deltas and
// ones whose samples often land behind the stored span — the span-storing
// Histogram answers every query exactly as the preallocating one did. It
// stores nothing until the first non-zero delta, and then, at bin k, at most
// min(numBins/8, numBins-k) bins (one at least). Each stream then runs a
// second time through a histogram given a horizon — none, one before its
// first stored sample, one inside its data, its newest sample (a replay's),
// one past numBins — which must read the same, and so must its Clone.
func TestHistogramMatchesPreallocatedReference(t *testing.T) {
	type sample struct {
		t sim.Time
		v float64
	}
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
		leadZeros, backward := 0, 1
		if rng.Intn(3) == 0 {
			leadZeros = rng.Intn(60) // the stream opens with zero deltas
		}
		if rng.Intn(3) == 0 {
			backward = 4 // samples often land below the stored span
		}
		stored := false
		pass := "unreserved"
		check := func(h *Histogram, ref *refHistogram, step int) {
			t.Helper()
			fail := func(what string, got, want any) {
				t.Fatalf("trial %d (bins %d, width %v, %s) after %d adds: %s = %v, reference %v", trial, numBins, width, pass, step, what, got, want)
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
			if h.String() != ref.string() {
				fail("String", h.String(), ref.string())
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
			vals := h.Values()
			if len(vals) != ref.numFilled() {
				fail("len(Values)", len(vals), ref.numFilled())
			}
			for i := range vals {
				if !sameBits(vals[i], ref.bins[i]) {
					fail("Values", vals[i], ref.bins[i])
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
		check(h, ref, 0)
		stream := make([]sample, 0, adds)
		var firstStored, newest sim.Time
		for i := 1; i <= adds; i++ {
			switch r := rng.Intn(10); {
			case r == 0:
				now += span * rng.Float64() * 3 // jump past the bound
			case r <= backward:
				now -= span * rng.Float64() // samples may arrive out of order
			default:
				now += float64(width) * rng.Float64() * 2
			}
			v := rng.NormFloat64() * 10
			if rng.Intn(8) == 0 || i <= leadZeros {
				v = 0
			}
			if !signed {
				v = math.Abs(v)
			}
			stream = append(stream, sample{sim.Time(now), v})
			newest = max(newest, sim.Time(now))
			h.Add(sim.Time(now), v)
			ref.add(sim.Time(now), v)
			if !stored && v != 0 {
				stored, firstStored = true, sim.Time(max(now, 0))
				k := int(sim.Duration(max(now, 0)) / ref.binWidth)
				if bound := max(1, min(numBins/8, numBins-k)); len(h.bins) == 0 || len(h.bins) > bound {
					t.Fatalf("trial %d (bins %d): first non-zero delta at bin %d stored %d bins, want 1..%d", trial, numBins, k, len(h.bins), bound)
				}
			}
			if !stored && len(h.bins) != 0 {
				t.Fatalf("trial %d: %d zero deltas stored %d bins", trial, i, len(h.bins))
			}
			if i%7 == 0 || i == adds {
				check(h, ref, i)
			}
		}

		horizon := []sim.Time{
			0, firstStored / 2, sim.Time(rng.Int63n(int64(newest) + 1)), newest,
			sim.Time(span * (1 + 3*rng.Float64())),
		}[trial%5]
		pass = fmt.Sprintf("reserved to %v", horizon)
		h, ref = NewHistogram(numBins, width), newRefHistogram(numBins, width)
		h.Reserve(horizon)
		for i, sm := range stream {
			h.Add(sm.t, sm.v)
			ref.add(sm.t, sm.v)
			if (i+1)%7 == 0 || i+1 == adds {
				check(h, ref, i+1)
			}
		}
		pass += ", cloned"
		check(h.Clone(), ref, adds)
	}
}

// A stream that stays inside its horizon, from its first sample on, stores
// its bins in one allocation however many bins it spans, where the
// unreserved histogram regrows towards them.
func TestReservedHistogramAllocatesOnce(t *testing.T) {
	const numBins, width = 1000, 200 * sim.Millisecond
	for _, c := range []struct{ first, until sim.Time }{
		{0, sim.Time(360 * width)},
		{sim.Time(40 * width), sim.Time(999 * width)},
		{sim.Time(500 * width), sim.Time(501 * width)},
		{0, sim.Time(5)},
	} {
		fill := func(reserve bool) func() {
			return func() {
				h := NewHistogram(numBins, width)
				if reserve {
					h.Reserve(c.until)
				}
				for at := c.first; at <= c.until; at += sim.Time(width / 3) {
					h.Add(at, 1)
				}
				h.Add(c.until, 1)
				reservedSink = h
			}
		}
		reserved, grown := testing.AllocsPerRun(5, fill(true)), testing.AllocsPerRun(5, fill(false))
		if reserved != 2 { // the Histogram and its bins
			t.Errorf("samples in [%v, %v]: a reserved histogram allocated %v objects, want 2", c.first, c.until, reserved)
		}
		if span := int(sim.Duration(c.until-c.first)/width) + 1; span > numBins/8 && grown <= reserved {
			t.Errorf("samples in [%v, %v]: the unreserved histogram allocated %v objects, no more than the reserved", c.first, c.until, grown)
		}
	}
}

var reservedSink *Histogram

// The span is allocated on demand: a histogram that has seen one early
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

// Property: folding keeps every bin's mass, odd bin counts included (the
// last bin of an odd count carries over alone). With integer-valued deltas
// every sum is exact, so Total equals the running sum of what was added
// after every fold.
func TestHistogramFoldKeepsMass(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		numBins := 1 + rng.Intn(40)
		h := NewHistogram(numBins, sim.Millisecond)
		sum := 0.0
		for i := 0; i < 300; i++ {
			folds := h.folds
			v := float64(rng.Intn(100) - 20)
			h.Add(sim.Time(rng.Int63n(int64(50*numBins)*int64(sim.Millisecond))), v)
			sum += v
			if h.Total() != sum {
				t.Fatalf("trial %d (bins %d) add %d, %d folds: Total %v, added %v", trial, numBins, i, h.folds-folds, h.Total(), sum)
			}
		}
		if h.folds == 0 {
			t.Fatalf("trial %d (bins %d): the stream never folded", trial, numBins)
		}
	}
}
