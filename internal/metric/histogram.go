// Package metric implements the tool's data side: accumulating counters and
// timers fed by instrumentation, metric definitions and metric-focus
// instances, and the bounded-memory folding histogram Paradyn stores
// performance data in (§5: bins start at 0.2 s of granularity and fold —
// neighbouring bins combine and the bin width doubles — whenever the
// fixed-size array fills, so long runs fit in bounded space at
// progressively coarser granularity).
package metric

import (
	"fmt"
	"math"

	"pperf/internal/sim"
)

// DefaultNumBins matches Paradyn's histogram size.
const DefaultNumBins = 1000

// DefaultBinWidth is the starting bin granularity (0.2 s, §5).
const DefaultBinWidth = 200 * sim.Millisecond

// Histogram accumulates per-time-bin totals of a metric's deltas. The value
// stored in a bin is the amount that occurred during the bin's interval
// (operations, bytes, seconds of waiting, ...); dividing by the bin width
// gives the rate the tool displays (ops/s, bytes/s, CPUs).
//
// The histogram's logical size is fixed at numBins — that is what decides
// when it folds — but the array behind it holds only the span
// [base, base+len(bins)) of bins that received a non-zero delta; every other
// bin reads zero, and a histogram that never sees one never allocates.
type Histogram struct {
	bins     []float64 // the stored span of the numBins logical bins
	base     int       // logical index of bins[0]
	numBins  int
	binWidth sim.Duration
	folds    int
	lastBin  int // highest bin index written
	any      bool
	until    sim.Time // Reserve's horizon: the first grow reaches its bin
}

// NewHistogram creates a histogram with the given bin count and starting
// width; zero arguments select the Paradyn defaults.
func NewHistogram(numBins int, binWidth sim.Duration) *Histogram {
	if numBins <= 0 {
		numBins = DefaultNumBins
	}
	if binWidth <= 0 {
		binWidth = DefaultBinWidth
	}
	return &Histogram{numBins: numBins, binWidth: binWidth}
}

// Reserve tells the histogram that no sample will come later than until (a
// replay knows its recorded end): its first stored span reaches that bin at
// once. Later samples are still stored; until <= 0 reserves nothing.
func (h *Histogram) Reserve(until sim.Time) { h.until = until }

// Clone returns an independent copy of the histogram, storing the same span.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.bins = append([]float64(nil), h.bins...)
	return &c
}

// Add accumulates value v at time t, folding first if t falls beyond the
// array. A zero delta is not stored: no bin holds -0, so ±0 changes no bit.
func (h *Histogram) Add(t sim.Time, v float64) {
	if t < 0 {
		t = 0
	}
	idx := int(sim.Duration(t) / h.binWidth)
	for idx >= h.numBins {
		h.fold()
		idx = int(sim.Duration(t) / h.binWidth)
	}
	if v != 0 {
		if idx < h.base || idx >= h.base+len(h.bins) {
			h.grow(idx)
		}
		h.bins[idx-h.base] += v
	}
	if idx > h.lastBin {
		h.lastBin = idx
	}
	h.any = true
}

// grow widens the stored span to cover bin idx within the logical bounds:
// the first starts at idx and holds an eighth of numBins (with a reserved
// horizon at or past idx, exactly the bins up to the horizon's), and each
// regrowth at least doubles it, upward from base or downward from its end.
func (h *Histogram) grow(idx int) {
	if len(h.bins) == 0 {
		h.base = idx
	}
	lo, hi := min(idx, h.base), max(idx+1, h.base+len(h.bins))
	n := max(hi-lo, 2*len(h.bins), h.numBins/8, 1)
	if end := int(sim.Duration(h.until) / h.binWidth); len(h.bins) == 0 && h.until > 0 && end >= idx {
		n = end + 1 - idx
	}
	if idx < h.base {
		lo = max(hi-n, 0)
	}
	n = min(n, h.numBins-lo)
	grown := make([]float64, n)
	copy(grown[h.base-lo:], h.bins)
	h.bins, h.base = grown, lo
}

// fold halves the resolution: neighbouring bins combine and the width
// doubles, freeing the upper half of the array (§5); an odd numBins' last bin
// carries over alone. Stored bin j reads old bins at or after j: in place.
func (h *Histogram) fold() {
	base := h.base / 2
	for j := range h.bins {
		i := base + j
		h.bins[j] = h.Bin(2*i) + h.Bin(2*i+1)
	}
	h.base = base
	h.binWidth *= 2
	h.lastBin /= 2
	h.folds++
}

// BinWidth returns the current bin granularity.
func (h *Histogram) BinWidth() sim.Duration { return h.binWidth }

// NumFilled returns the number of bins up to and including the last written
// one (0 if nothing was added).
func (h *Histogram) NumFilled() int {
	if !h.any {
		return 0
	}
	return h.lastBin + 1
}

// Bin returns the accumulated value of bin i (zero outside the logical
// array and outside the stored span).
func (h *Histogram) Bin(i int) float64 {
	if i -= h.base; i < 0 || i >= len(h.bins) {
		return 0
	}
	return h.bins[i]
}

// Values returns a copy of the filled prefix of the bin array.
func (h *Histogram) Values() []float64 {
	if !h.any {
		return nil
	}
	vals := make([]float64, h.NumFilled())
	copy(vals[h.base:], h.bins) // a stored span starts at or before the last bin written
	return vals
}

// Total returns the sum over all bins (the unstored ones hold zero). No bin
// past lastBin ever received a delta, and adding its +0 would change no bit,
// so the sum stops there.
func (h *Histogram) Total() float64 {
	s := 0.0
	for _, v := range h.bins[:max(min(h.lastBin+1-h.base, len(h.bins)), 0)] {
		s += v
	}
	return s
}

// --- the paper's export-and-calculate methodology (§5, §5.2.1.3) ---------

// MeanRateExcludingEnds computes the average per-second rate over the filled
// bins, eliminating the first and last bins: "we cannot know exactly when in
// the time interval represented by the end-point bins that the data
// collection actually began or ended" (§5).
func (h *Histogram) MeanRateExcludingEnds() float64 {
	n := h.NumFilled()
	if n <= 2 {
		// Not enough interior bins; fall back to everything.
		if n == 0 {
			return 0
		}
		return h.Total() / (float64(n) * h.binWidth.Seconds())
	}
	return h.InteriorTotal() / (float64(n-2) * h.binWidth.Seconds())
}

// TotalViaMeanRate reproduces the paper's byte-count calculations (Figs 4,
// 6, 8): multiply the mean rate by the program's wall-clock runtime. Because
// the end bins are eliminated, the estimate characteristically comes out
// slightly below the true total.
func (h *Histogram) TotalViaMeanRate(runtime sim.Duration) float64 {
	return h.MeanRateExcludingEnds() * runtime.Seconds()
}

// ActiveRunTime estimates the duration of the activity the histogram
// records, as §5.2.1.3 does for the Presta comparison: count the bins with
// data, excluding the two endpoint bins, times the bin width.
func (h *Histogram) ActiveRunTime() sim.Duration {
	n := 0
	filled := h.NumFilled()
	for i := 1; i < filled-1; i++ {
		if h.Bin(i) != 0 {
			n++
		}
	}
	return sim.Duration(n) * h.binWidth
}

// InteriorTotal sums the bins excluding the two endpoints.
func (h *Histogram) InteriorTotal() float64 {
	filled := h.NumFilled()
	s := 0.0
	for i := 1; i < filled-1; i++ {
		s += h.Bin(i)
	}
	return s
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("histogram(%d bins @ %v, %d folds, total %.6g)",
		h.NumFilled(), h.binWidth, h.folds, h.Total())
}

// Render draws a text sparkline of the filled bins, the stand-in for the
// paper's histogram screenshots.
func (h *Histogram) Render(width int) string {
	n := h.NumFilled()
	if n == 0 {
		return "(empty)"
	}
	if width <= 0 {
		width = 60
	}
	// Downsample to the requested width.
	cells := make([]float64, width)
	for i := 0; i < n; i++ {
		cells[i*width/n] += h.Bin(i)
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
