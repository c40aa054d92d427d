package perfdb

import (
	"fmt"
	"strings"

	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/metric"
	"pperf/internal/sim"
	"pperf/internal/stats"
)

// Cross-run regression diagnosis: align the metric-focus pairs two stored
// runs share, compare their histogram series bin-by-bin with the paper's
// §5.2.1.3 paired-difference test (is zero inside the 95% confidence
// interval of the mean per-bin difference?), and rank the significant
// changes (verdict.go): a significant rate increase is a regression, a
// significant decrease an improvement.
//
// Compare generalizes the test to a virtual-time window: restricted to
// [from,to), only the bins overlapping the window enter the paired test,
// so a change confined to one phase of the run (after a fault fired, say)
// is not diluted by the unaffected phase.

// Window restricts a comparison to the virtual-time interval [From, To).
// To == 0 leaves the window open-ended; the zero Window disables
// windowing entirely (the whole run is compared).
type Window struct {
	From, To sim.Time
}

// Enabled reports whether the window restricts anything.
func (w Window) Enabled() bool { return w.From > 0 || w.To > 0 }

// String renders the half-open interval, with an open end as "end".
func (w Window) String() string {
	if w.To > 0 {
		return fmt.Sprintf("[%v, %v)", w.From, w.To)
	}
	return fmt.Sprintf("[%v, end)", w.From)
}

// overlaps reports whether the bin interval [lo, hi) intersects the
// window.
func (w Window) overlaps(lo, hi sim.Time) bool {
	if w.To > 0 && lo >= w.To {
		return false
	}
	return hi > w.From
}

// CompareOptions parameterize a cross-run comparison. The zero value
// reproduces the classic whole-run diff exactly.
type CompareOptions struct {
	// Window restricts the paired test to bins overlapping [From, To) in
	// virtual time. The zero window compares the whole run.
	Window Window
	// SinceFault anchors the window's start at the new run's first fired
	// fault (read from its recorded fault log). Comparing only the
	// post-fault phase keeps a fault-local regression from being diluted
	// below significance by the healthy prefix. Mutually exclusive with
	// an explicit Window.From; combines with Window.To. It is an error
	// when the new run has no fired faults on record.
	SinceFault bool
	// Alpha is the two-sided significance level of the paired test:
	// 0.10, 0.05 or 0.01 (0 means 0.05, the paper's level).
	Alpha float64
	// MinEffect suppresses significant verdicts whose |relative change|
	// falls below it: statistically real but operationally irrelevant
	// drifts report as unchanged. 0 disables the filter.
	MinEffect float64
}

// SeriesDelta is the comparison of one metric-focus pair across two runs.
type SeriesDelta struct {
	Pair    datasource.Pair
	Verdict Verdict
	// Skipped holds the reason when Verdict is VerdictSkipped or
	// VerdictNotComparable.
	Skipped string

	// BaseRate and NewRate are the mean interior per-bin rates (units/s)
	// at the common bin width; endpoint bins are excluded, as the paper
	// does, because collection start/end fall somewhere inside them.
	BaseRate, NewRate float64
	// MeanDiff is the mean per-bin rate difference, new minus base.
	MeanDiff float64
	// CI is the confidence interval of MeanDiff at the comparison's
	// significance level (95% by default).
	CI stats.Interval
	// RelChange is MeanDiff relative to BaseRate (NaN when BaseRate is 0
	// and the rates differ; ranked above every finite change).
	RelChange float64

	// Bins is the number of interior bins compared; BinWidth the common
	// granularity both series were rebinned to.
	Bins     int
	BinWidth sim.Duration
}

// DiffReport is the ranked outcome of comparing two stored runs.
type DiffReport struct {
	Base, New RunMeta

	// Window is the effective virtual-time restriction (zero when the
	// whole run was compared); SinceFault records that its start was
	// anchored at the new run's first fired fault.
	Window     Window
	SinceFault bool
	// Alpha is the significance level the verdicts used; MinEffect the
	// relative-change floor (0 when unset).
	Alpha     float64
	MinEffect float64

	// Deltas holds every pair present in both runs in rank order:
	// significant first (largest |RelChange| first), then unchanged, then
	// skipped and not comparable.
	Deltas []SeriesDelta

	// OnlyBase and OnlyNew list pairs enabled in just one of the runs.
	OnlyBase, OnlyNew []datasource.Pair
}

// Regressions returns the deltas with a regression verdict, in rank order.
func (r *DiffReport) Regressions() []SeriesDelta {
	var out []SeriesDelta
	for _, d := range r.Deltas {
		if d.Verdict == VerdictRegression {
			out = append(out, d)
		}
	}
	return out
}

// Compare runs the cross-run comparison of base against new under the
// given options. The zero CompareOptions compare the whole run at the
// default significance level.
func Compare(base, neu *RunView, opts CompareOptions) (*DiffReport, error) {
	alpha, err := checkThresholds(opts.Alpha, opts.MinEffect)
	if err != nil {
		return nil, err
	}
	win := opts.Window
	if opts.SinceFault {
		if win.From > 0 {
			return nil, fmt.Errorf("perfdb: SinceFault and an explicit window start are mutually exclusive (drop -from or -since-fault)")
		}
		at, ok := faults.FirstFireTime(neu.FaultLog())
		if !ok {
			return nil, fmt.Errorf("perfdb: run %s has no fired faults to anchor the window (recorded without -faults, or before fault logs were stored? use -from for an explicit window)", runTitle(neu.Meta))
		}
		win.From = at
	}
	if win.To > 0 && win.From >= win.To {
		return nil, fmt.Errorf("perfdb: empty window %v: the start must precede the end", win)
	}
	rep := &DiffReport{
		Base: base.Meta, New: neu.Meta,
		Window: win, SinceFault: opts.SinceFault,
		Alpha: alpha, MinEffect: opts.MinEffect,
	}
	for _, p := range neu.Pairs() {
		if base.SeriesFor(p) == nil {
			rep.OnlyNew = append(rep.OnlyNew, p)
		}
	}
	for _, p := range base.Pairs() {
		if neu.SeriesFor(p) == nil {
			rep.OnlyBase = append(rep.OnlyBase, p)
			continue
		}
		rep.Deltas = append(rep.Deltas, comparePair(p,
			base.SeriesFor(p).Histogram(), neu.SeriesFor(p).Histogram(), win, alpha, opts.MinEffect))
	}
	rank(rep.Deltas)
	return rep, nil
}

// comparePair runs the paired-difference test over one pair's two
// histograms, restricted to the window's bins.
func comparePair(p datasource.Pair, hb, hn *metric.Histogram, win Window, alpha, minEffect float64) SeriesDelta {
	d := SeriesDelta{Pair: p}
	rb, rn, width, skip, reason := alignRates(hb, hn, win)
	if reason != "" {
		d.Verdict, d.Skipped = skip, reason
		return d
	}
	d.BinWidth, d.Bins, d.BaseRate, d.NewRate = width, len(rb), stats.Mean(rb), stats.Mean(rn)
	// PairedDiffAlpha computes a-b, so pass the new run first: MeanDiff >
	// 0 means the rate rose.
	pr, err := stats.PairedDiffAlpha(rn, rb, alpha)
	if err != nil {
		d.Verdict, d.Skipped = VerdictSkipped, err.Error()
		return d
	}
	rel, out := judge(pr.Significant, pr.MeanDiff, d.BaseRate, minEffect)
	d.MeanDiff, d.CI, d.RelChange, d.Verdict = pr.MeanDiff, pr.CI, rel, diffVerdicts[out]
	return d
}

// alignRates rebins both histograms to the coarser common bin width,
// truncates to the shorter filled prefix, drops the endpoint bins, keeps
// the interior bins overlapping the window, and returns their per-bin
// rates. A non-empty reason means the pair cannot be compared, and skip
// says why: NOT-COMPARABLE when the window left too little data, skipped
// for shape problems the runs have regardless of any window.
func alignRates(hb, hn *metric.Histogram, win Window) (rb, rn []float64, width sim.Duration, skip Verdict, reason string) {
	if hb.NumFilled() == 0 || hn.NumFilled() == 0 {
		return nil, nil, 0, VerdictSkipped, "no data in one or both runs"
	}
	width = max(hb.BinWidth(), hn.BinWidth())
	vb, okb := rebin(hb, width)
	vn, okn := rebin(hn, width)
	if !okb || !okn {
		return nil, nil, 0, VerdictSkipped, fmt.Sprintf("incompatible bin widths %v vs %v", hb.BinWidth(), hn.BinWidth())
	}
	// Drop the endpoint bins: collection start and end fall somewhere
	// inside them, so their values undercount (§5).
	n := min(len(vb), len(vn))
	if n < 4 {
		return nil, nil, 0, VerdictSkipped, fmt.Sprintf("too few common bins (%d) for a paired test", n)
	}
	sec := width.Seconds()
	rb = make([]float64, 0, n-2)
	rn = make([]float64, 0, n-2)
	for i := 1; i < n-1; i++ {
		lo := sim.Time(sim.Duration(i) * width)
		hi := sim.Time(sim.Duration(i+1) * width)
		if win.Enabled() && !win.overlaps(lo, hi) {
			continue
		}
		rb = append(rb, vb[i]/sec)
		rn = append(rn, vn[i]/sec)
	}
	switch {
	case win.Enabled() && len(rb) == 0:
		span := sim.Time(sim.Duration(n) * width)
		return nil, nil, 0, VerdictNotComparable, fmt.Sprintf("window %v excludes every interior bin (runs share %d bins @ %v, ending at %v)", win, n, width, span)
	case win.Enabled() && len(rb) == 1:
		return nil, nil, 0, VerdictNotComparable, fmt.Sprintf("window %v leaves 1 interior bin; a paired test needs at least 2", win)
	}
	return rb, rn, width, "", ""
}

// rebin returns the histogram's filled values regrouped at the coarser
// target width (summing runs of ratio bins). ok is false when the widths
// are not integer multiples — histograms that started at different
// granularities cannot be aligned.
func rebin(h *metric.Histogram, target sim.Duration) ([]float64, bool) {
	w := h.BinWidth()
	if w <= 0 || target%w != 0 {
		return nil, false
	}
	ratio := int(target / w)
	vals := h.Values()
	if ratio == 1 {
		return vals, true
	}
	out := make([]float64, 0, (len(vals)+ratio-1)/ratio)
	for i := 0; i < len(vals); i += ratio {
		s := 0.0
		for j := i; j < i+ratio && j < len(vals); j++ {
			s += vals[j]
		}
		out = append(out, s)
	}
	return out, true
}

// describe renders one delta as a report line.
func (d SeriesDelta) describe() string {
	name := fmt.Sprintf("%s @ %s", d.Pair.Metric, d.Pair.Focus)
	if d.Skipped != "" {
		return fmt.Sprintf("%-11s %s: %s", d.Verdict, name, d.Skipped)
	}
	return fmt.Sprintf("%-11s %s: %.6g/s -> %.6g/s (%s, CI %s, n=%d @ %v)",
		d.Verdict, name, d.BaseRate, d.NewRate, relString(d.RelChange), d.CI, d.Bins, d.BinWidth)
}

func (d SeriesDelta) row() (Verdict, float64, datasource.Pair) {
	return d.Verdict, d.RelChange, d.Pair
}

// Render produces the ranked, byte-deterministic diff report. An
// unwindowed default-options report renders exactly as the classic Diff
// output did; window and threshold lines appear only when set.
func (r *DiffReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfdb diff: %s -> %s\n", runTitle(r.Base), runTitle(r.New))
	fmt.Fprintf(&b, "  base: %s\n", r.Base.Describe())
	fmt.Fprintf(&b, "  new:  %s\n", r.New.Describe())
	if r.Window.Enabled() {
		anchor := ""
		if r.SinceFault {
			anchor = " (anchored at the new run's first fired fault)"
		}
		fmt.Fprintf(&b, "  window: %v%s\n", r.Window, anchor)
	}
	if r.Alpha != 0 && r.Alpha != 0.05 {
		fmt.Fprintf(&b, "  alpha: %g\n", r.Alpha)
	}
	if r.MinEffect > 0 {
		fmt.Fprintf(&b, "  min-effect: %g\n", r.MinEffect)
	}
	if r.Base.Verdict != "" || r.New.Verdict != "" {
		fmt.Fprintf(&b, "  consultant: base %s\n", orDash(r.Base.Verdict))
		fmt.Fprintf(&b, "              new  %s\n", orDash(r.New.Verdict))
	}
	if len(r.Deltas) == 0 {
		b.WriteString("no comparable metric-focus pairs\n")
	}
	for _, d := range r.Deltas {
		b.WriteString("  " + d.describe() + "\n")
	}
	for _, p := range r.OnlyBase {
		fmt.Fprintf(&b, "  only in base: %s @ %s\n", p.Metric, p.Focus)
	}
	for _, p := range r.OnlyNew {
		fmt.Fprintf(&b, "  only in new:  %s @ %s\n", p.Metric, p.Focus)
	}
	nReg := len(r.Regressions())
	nSig := 0
	for _, d := range r.Deltas {
		if d.Verdict.significant() {
			nSig++
		}
	}
	fmt.Fprintf(&b, "%d pairs compared, %d significant (%d regressions)\n",
		len(r.Deltas), nSig, nReg)
	return b.String()
}

func runTitle(m RunMeta) string {
	if m.Label != "" {
		return fmt.Sprintf("%s (%s)", m.ID, m.Label)
	}
	return m.ID
}
