package perfdb

import (
	"fmt"
	"math"
	"sort"
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
// changes. The metrics this tool collects measure costs — wait fractions,
// transferred bytes, operation counts — so a significant rate increase is
// reported as a regression and a significant decrease as an improvement.
//
// Compare generalizes the test to a virtual-time window: restricted to
// [from,to), only the bins overlapping the window enter the paired test,
// so a change confined to one phase of the run (after a fault fired, say)
// is not diluted by the unaffected phase.

// Verdict classifies one aligned pair's change.
type Verdict string

const (
	// VerdictRegression: the rate rose and the CI excludes zero.
	VerdictRegression Verdict = "REGRESSION"
	// VerdictImprovement: the rate fell and the CI excludes zero.
	VerdictImprovement Verdict = "improvement"
	// VerdictUnchanged: the CI contains zero.
	VerdictUnchanged Verdict = "unchanged"
	// VerdictSkipped: the pair could not be compared (reason in Skipped).
	VerdictSkipped Verdict = "skipped"
	// VerdictNotComparable: a requested window excludes the pair's data,
	// so the comparison is undefined there (reason in Skipped). Reported
	// rather than dropped so a windowed report accounts for every pair.
	VerdictNotComparable Verdict = "NOT-COMPARABLE"
)

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
	// and the rates differ; ranked last among equals).
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

	// Deltas holds every pair present in both runs: significant changes
	// first (largest |RelChange| first), then unchanged, then skipped;
	// ties broken by pair name so the report is byte-deterministic.
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
	if _, err := stats.TCritical(1, opts.Alpha); err != nil {
		return nil, fmt.Errorf("perfdb: %v", err)
	}
	if opts.MinEffect < 0 {
		return nil, fmt.Errorf("perfdb: negative min-effect %g", opts.MinEffect)
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
		Alpha: opts.Alpha, MinEffect: opts.MinEffect,
	}
	if rep.Alpha == 0 {
		rep.Alpha = 0.05
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
			base.SeriesFor(p).Histogram(), neu.SeriesFor(p).Histogram(), win, rep.Alpha, opts.MinEffect))
	}
	rankDeltas(rep.Deltas)
	return rep, nil
}

// comparePair runs the paired-difference test over one pair's two
// histograms, restricted to the window's bins.
func comparePair(p datasource.Pair, hb, hn *metric.Histogram, win Window, alpha, minEffect float64) SeriesDelta {
	d := SeriesDelta{Pair: p}
	rb, rn, width, reason, excluded := alignRates(hb, hn, win)
	if reason != "" {
		if excluded {
			d.Verdict = VerdictNotComparable
		} else {
			d.Verdict = VerdictSkipped
		}
		d.Skipped = reason
		return d
	}
	d.BinWidth = width
	d.Bins = len(rb)
	d.BaseRate = stats.Mean(rb)
	d.NewRate = stats.Mean(rn)
	// PairedDiffAlpha computes a-b, so pass the new run first: MeanDiff >
	// 0 means the rate rose.
	pr, err := stats.PairedDiffAlpha(rn, rb, alpha)
	if err != nil {
		d.Verdict = VerdictSkipped
		d.Skipped = err.Error()
		return d
	}
	d.MeanDiff = pr.MeanDiff
	d.CI = pr.CI
	switch {
	case d.BaseRate != 0:
		d.RelChange = d.MeanDiff / d.BaseRate
	case d.MeanDiff != 0:
		d.RelChange = math.NaN() // rose from zero: infinite relative change
	}
	significant := pr.Significant
	if significant && minEffect > 0 && !math.IsNaN(d.RelChange) && math.Abs(d.RelChange) < minEffect {
		significant = false
	}
	switch {
	case !significant:
		d.Verdict = VerdictUnchanged
	case d.MeanDiff > 0:
		d.Verdict = VerdictRegression
	default:
		d.Verdict = VerdictImprovement
	}
	return d
}

// alignRates rebins both histograms to the coarser common bin width,
// truncates to the shorter filled prefix, drops the endpoint bins, keeps
// the interior bins overlapping the window, and returns their per-bin
// rates. A non-empty reason means the pair cannot be compared; excluded
// distinguishes "the window left too little data" (NOT-COMPARABLE) from
// shape problems the runs have regardless of any window (skipped).
func alignRates(hb, hn *metric.Histogram, win Window) (rb, rn []float64, width sim.Duration, reason string, excluded bool) {
	if hb.NumFilled() == 0 || hn.NumFilled() == 0 {
		return nil, nil, 0, "no data in one or both runs", false
	}
	width = hb.BinWidth()
	if hn.BinWidth() > width {
		width = hn.BinWidth()
	}
	vb, ok := rebin(hb, width)
	if !ok {
		return nil, nil, 0, fmt.Sprintf("incompatible bin widths %v vs %v", hb.BinWidth(), hn.BinWidth()), false
	}
	vn, ok := rebin(hn, width)
	if !ok {
		return nil, nil, 0, fmt.Sprintf("incompatible bin widths %v vs %v", hb.BinWidth(), hn.BinWidth()), false
	}
	n := len(vb)
	if len(vn) < n {
		n = len(vn)
	}
	// Drop the endpoint bins: collection start and end fall somewhere
	// inside them, so their values undercount (§5).
	if n < 4 {
		return nil, nil, 0, fmt.Sprintf("too few common bins (%d) for a paired test", n), false
	}
	sec := width.Seconds()
	rb = make([]float64, 0, n-2)
	rn = make([]float64, 0, n-2)
	kept := 0
	for i := 1; i < n-1; i++ {
		lo := sim.Time(sim.Duration(i) * width)
		hi := sim.Time(sim.Duration(i+1) * width)
		if win.Enabled() && !win.overlaps(lo, hi) {
			continue
		}
		kept++
		rb = append(rb, vb[i]/sec)
		rn = append(rn, vn[i]/sec)
	}
	if win.Enabled() && kept < 2 {
		span := sim.Time(sim.Duration(n) * width)
		switch kept {
		case 0:
			return nil, nil, 0, fmt.Sprintf("window %v excludes every interior bin (runs share %d bins @ %v, ending at %v)", win, n, width, span), true
		default:
			return nil, nil, 0, fmt.Sprintf("window %v leaves 1 interior bin; a paired test needs at least 2", win), true
		}
	}
	return rb, rn, width, "", false
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

// rankDeltas orders: significant first by |RelChange| descending (NaN —
// rose from zero — ranks above every finite change), then unchanged,
// then skipped; pair names break every tie.
func rankDeltas(ds []SeriesDelta) {
	class := func(v Verdict) int {
		switch v {
		case VerdictRegression, VerdictImprovement:
			return 0
		case VerdictUnchanged:
			return 1
		default:
			return 2
		}
	}
	mag := func(d SeriesDelta) float64 {
		if math.IsNaN(d.RelChange) {
			return math.Inf(1)
		}
		return math.Abs(d.RelChange)
	}
	sort.SliceStable(ds, func(i, j int) bool {
		ci, cj := class(ds[i].Verdict), class(ds[j].Verdict)
		if ci != cj {
			return ci < cj
		}
		if ci == 0 {
			mi, mj := mag(ds[i]), mag(ds[j])
			if mi != mj {
				return mi > mj
			}
		}
		return datasource.ComparePairs(ds[i].Pair, ds[j].Pair) < 0
	})
}

// describe renders one delta as a report line.
func (d SeriesDelta) describe() string {
	name := fmt.Sprintf("%s @ %s", d.Pair.Metric, d.Pair.Focus)
	if d.Verdict == VerdictSkipped || d.Verdict == VerdictNotComparable {
		return fmt.Sprintf("%-11s %s: %s", d.Verdict, name, d.Skipped)
	}
	rel := "n/a"
	if !math.IsNaN(d.RelChange) {
		rel = fmt.Sprintf("%+.1f%%", d.RelChange*100)
	}
	return fmt.Sprintf("%-11s %s: %.6g/s -> %.6g/s (%s, CI %s, n=%d @ %v)",
		d.Verdict, name, d.BaseRate, d.NewRate, rel, d.CI, d.Bins, d.BinWidth)
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
		if d.Verdict == VerdictRegression || d.Verdict == VerdictImprovement {
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
