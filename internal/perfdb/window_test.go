package perfdb

// Windowed-comparison edge cases: empty windows, windows past the run
// end, windows that exclude a series entirely, and the -since-fault
// anchor — including its hard error on a run with no fired faults.

import (
	"os"
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// appendSeries adds another metric's enable+samples to a synthetic
// archive (50ms sample spacing, like rateArchive).
func appendSeries(a *session.Archive, metricName string, deltas []float64) {
	a.Events = append(a.Events, session.Event{Kind: session.EvEnable, Metric: metricName, Focus: testFocus})
	for i, d := range deltas {
		a.Events = append(a.Events, session.Event{Kind: session.EvSamples, Samples: []datasource.Sample{{
			Metric: metricName, Focus: testFocus, Proc: "p{0}",
			Time: sim.Time(i) * sim.Time(50*sim.Millisecond), Delta: d, Value: d,
		}}})
	}
	a.Header.NumEvents = len(a.Events)
}

// goldenPair builds the verdict-diverse base/new pair the pre-redesign
// golden was generated from.
func goldenPair() (*RunView, *RunView) {
	baseArch := rateArchive("m_reg", 100, flat(40, 1.0))
	appendSeries(baseArch, "m_imp", flat(40, 2.0))
	appendSeries(baseArch, "m_same", flat(40, 1.0))
	appendSeries(baseArch, "m_short", flat(2, 1.0))
	appendSeries(baseArch, "only_base", flat(40, 1.0))
	newArch := rateArchive("m_reg", 100, flat(40, 2.0))
	appendSeries(newArch, "m_imp", flat(40, 1.0))
	appendSeries(newArch, "m_same", flat(40, 1.0))
	appendSeries(newArch, "m_short", flat(2, 2.0))
	appendSeries(newArch, "only_new", flat(40, 1.0))
	return view(baseArch, "base"), view(newArch, "new")
}

// windowedPair builds a base/new pair for a [1s, 2s) window at alpha 0.10
// with a 5% effect floor: a post-1s regression, a noisy improvement, a 2%
// shift the floor suppresses, a rise from zero (NaN relative change), a
// series that ends before the window (NOT-COMPARABLE) and one too short
// to test at all (skipped).
func windowedPair() (*RunView, *RunView) {
	late := flat(40, 1.0)
	for i := 20; i < 40; i++ {
		late[i] = 3.0
	}
	noisy := flat(40, 1.0)
	for i := 1; i < 40; i += 2 {
		noisy[i] = 1.2
	}
	baseArch := rateArchive("m_reg", 100, flat(40, 1.0))
	appendSeries(baseArch, "m_imp", flat(40, 2.0))
	appendSeries(baseArch, "m_slight", flat(40, 1.0))
	appendSeries(baseArch, "m_zero", flat(40, 0))
	appendSeries(baseArch, "m_early", flat(10, 1.0))
	appendSeries(baseArch, "m_short", flat(2, 1.0))
	newArch := rateArchive("m_reg", 100, late)
	appendSeries(newArch, "m_imp", noisy)
	appendSeries(newArch, "m_slight", flat(40, 1.02))
	appendSeries(newArch, "m_zero", flat(40, 1.0))
	appendSeries(newArch, "m_early", flat(10, 3.0))
	appendSeries(newArch, "m_short", flat(2, 2.0))
	return view(baseArch, "base"), view(newArch, "new")
}

// trendStore builds five runs whose series show every trend verdict: a
// flat series (STABLE), a level shift up at the fourth run (DRIFTING-UP,
// first-bad r0004), the mirror shift down (DRIFTING-DOWN), a ramp through
// zero (NaN relative slope) and a series only the last run collected
// (skipped).
func trendStore() []*RunView {
	up := []float64{1, 1, 1, 2, 2}
	down := []float64{2, 2, 2, 1, 1}
	zero := []float64{-2, -1, 0, 1, 2}
	var views []*RunView
	for i, id := range []string{"r0001", "r0002", "r0003", "r0004", "r0005"} {
		a := rateArchive("m_stable", 100, flat(40, 1.0))
		appendSeries(a, "m_up", flat(40, up[i]))
		appendSeries(a, "m_down", flat(40, down[i]))
		appendSeries(a, "m_zero", flat(40, zero[i]))
		if i == 4 {
			appendSeries(a, "m_partial", flat(40, 1.0))
		}
		views = append(views, openArchive(a, RunMeta{ID: id, Program: "synthetic"}))
	}
	return views
}

// renderedReport is what both DiffReport and TrendReport render.
type renderedReport interface {
	Render() string
	RenderJSON() ([]byte, error)
}

// TestCompareDefaultMatchesGolden pins every analytics report byte for
// byte against its testdata golden: Compare with zero options must render
// as the pre-Compare code did (diff_default.golden), and the diff JSON,
// the windowed diff and the trend report, text and JSON, as they did
// before diff and trend shared one verdict core.
func TestCompareDefaultMatchesGolden(t *testing.T) {
	defaultDiff := func() (renderedReport, error) {
		base, neu := goldenPair()
		return Compare(base, neu, CompareOptions{})
	}
	windowedDiff := func() (renderedReport, error) {
		base, neu := windowedPair()
		return Compare(base, neu, CompareOptions{
			Window:    Window{From: sim.Time(sim.Second), To: sim.Time(2 * sim.Second)},
			Alpha:     0.10,
			MinEffect: 0.05,
		})
	}
	trend := func() (renderedReport, error) {
		return Trend(trendStore(), TrendOptions{Alpha: 0.10})
	}
	for _, c := range []struct {
		golden string
		json   bool
		build  func() (renderedReport, error)
	}{
		{"diff_default.golden", false, defaultDiff},
		{"diff_default.json.golden", true, defaultDiff},
		{"diff_windowed.golden", false, windowedDiff},
		{"diff_windowed.json.golden", true, windowedDiff},
		{"trend.golden", false, trend},
		{"trend.json.golden", true, trend},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.golden)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(rep.Render())
			if c.json {
				if got, err = rep.RenderJSON(); err != nil {
					t.Fatal(err)
				}
			}
			if string(got) != string(want) {
				t.Errorf("report diverges from testdata/%s:\ngot:\n%s\nwant:\n%s", c.golden, got, want)
			}
		})
	}
}

func TestCompareEmptyWindowErrors(t *testing.T) {
	base := view(rateArchive("m", 100, flat(40, 1.0)), "base")
	neu := view(rateArchive("m", 100, flat(40, 2.0)), "new")
	if _, err := Compare(base, neu, CompareOptions{
		Window: Window{From: sim.Time(sim.Second), To: sim.Time(sim.Second)},
	}); err == nil || !strings.Contains(err.Error(), "empty window") {
		t.Errorf("empty window: err = %v", err)
	}
	if _, err := Compare(base, neu, CompareOptions{
		Window: Window{From: sim.Time(2 * sim.Second), To: sim.Time(sim.Second)},
	}); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestCompareWindowPastRunEnd(t *testing.T) {
	// 40 bins at 50ms end at 2s; a window starting at 10s overlaps
	// nothing. The pair must surface as NOT-COMPARABLE with a reason, not
	// vanish from the report.
	base := view(rateArchive("m", 100, flat(40, 1.0)), "base")
	neu := view(rateArchive("m", 100, flat(40, 2.0)), "new")
	rep, err := Compare(base, neu, CompareOptions{Window: Window{From: sim.Time(10 * sim.Second)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deltas) != 1 {
		t.Fatalf("deltas: %+v", rep.Deltas)
	}
	d := rep.Deltas[0]
	if d.Verdict != VerdictNotComparable || !strings.Contains(d.Skipped, "excludes every interior bin") {
		t.Errorf("past-end window: %s %q", d.Verdict, d.Skipped)
	}
	if !strings.Contains(rep.Render(), "NOT-COMPARABLE") {
		t.Error("render drops the not-comparable pair")
	}
	if !strings.Contains(rep.Render(), "window: [10.000s, end)") {
		t.Errorf("render lacks the window line:\n%s", rep.Render())
	}
}

func TestCompareWindowExcludesOneSeries(t *testing.T) {
	// m_long spans the whole 2s run; m_early stops at 0.5s. A [1s, 2s)
	// window still compares m_long but excludes every m_early bin.
	baseArch := rateArchive("m_long", 100, flat(40, 1.0))
	appendSeries(baseArch, "m_early", flat(10, 1.0))
	newArch := rateArchive("m_long", 100, flat(40, 3.0))
	appendSeries(newArch, "m_early", flat(10, 3.0))
	rep, err := Compare(view(baseArch, "base"), view(newArch, "new"), CompareOptions{
		Window: Window{From: sim.Time(sim.Second), To: sim.Time(2 * sim.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SeriesDelta{}
	for _, d := range rep.Deltas {
		byName[d.Pair.Metric] = d
	}
	if d := byName["m_long"]; d.Verdict != VerdictRegression {
		t.Errorf("m_long in window: %s %q", d.Verdict, d.Skipped)
	}
	if d := byName["m_early"]; d.Verdict != VerdictNotComparable || d.Skipped == "" {
		t.Errorf("m_early excluded by window: %s %q", d.Verdict, d.Skipped)
	}
}

func TestCompareWindowRestrictsBins(t *testing.T) {
	// Regression confined to [1s, 2s): the windowed comparison sees only
	// those bins and a rate jump from 20/s to 60/s.
	deltas := flat(40, 1.0)
	for i := 20; i < 40; i++ {
		deltas[i] = 3.0
	}
	base := view(rateArchive("m", 100, flat(40, 1.0)), "base")
	neu := view(rateArchive("m", 100, deltas), "new")
	rep, err := Compare(base, neu, CompareOptions{Window: Window{From: sim.Time(sim.Second)}})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Deltas[0]
	if d.Verdict != VerdictRegression {
		t.Fatalf("windowed regression: %s %q", d.Verdict, d.Skipped)
	}
	// Interior bins are 1..38; the window keeps 20..38 — 19 bins.
	if d.Bins != 19 {
		t.Errorf("windowed bins = %d, want 19", d.Bins)
	}
	if d.BaseRate != 20 || d.NewRate != 60 {
		t.Errorf("windowed rates: %g/s -> %g/s, want 20 -> 60", d.BaseRate, d.NewRate)
	}
}

func TestSinceFaultAnchorsWindow(t *testing.T) {
	a := rateArchive("m", 100, flat(40, 1.0))
	deltas := flat(40, 1.0)
	for i := 24; i < 40; i++ {
		deltas[i] = 3.0
	}
	b := rateArchive("m", 100, deltas)
	b.Header.Meta["fault-log"] = "1.200s degrade-link *:* lat=1 bw=0.1"
	rep, err := Compare(view(a, "base"), view(b, "faulted"), CompareOptions{SinceFault: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Window.From != sim.Time(1200*sim.Millisecond) || !rep.SinceFault {
		t.Errorf("window = %+v sinceFault=%v, want anchored at 1.2s", rep.Window, rep.SinceFault)
	}
	if d := rep.Deltas[0]; d.Verdict != VerdictRegression || d.BaseRate != 20 || d.NewRate != 60 {
		t.Errorf("post-fault delta: %+v", d)
	}
	if !strings.Contains(rep.Render(), "anchored at the new run's first fired fault") {
		t.Errorf("render lacks the anchor note:\n%s", rep.Render())
	}
}

func TestSinceFaultWithoutFiredFaultsErrors(t *testing.T) {
	base := view(rateArchive("m", 100, flat(40, 1.0)), "base")
	neu := view(rateArchive("m", 100, flat(40, 2.0)), "new")
	_, err := Compare(base, neu, CompareOptions{SinceFault: true})
	if err == nil || !strings.Contains(err.Error(), "no fired faults") || !strings.Contains(err.Error(), "-from") {
		t.Errorf("since-fault without faults: err = %v (want a hard error with a -from hint)", err)
	}
	// A log with no stamped line must also refuse to anchor.
	b := rateArchive("m", 100, flat(40, 2.0))
	b.Header.Meta["fault-log"] = "hang-daemon node2"
	if _, err := Compare(base, view(b, "unstamped"), CompareOptions{SinceFault: true}); err == nil {
		t.Error("an unstamped fault log anchored a window")
	}
	// And an explicit -from alongside -since-fault is ambiguous.
	c := rateArchive("m", 100, flat(40, 2.0))
	c.Header.Meta["fault-log"] = "1.000s kill-node node1"
	if _, err := Compare(base, view(c, "faulted"), CompareOptions{
		SinceFault: true, Window: Window{From: sim.Time(sim.Second)},
	}); err == nil {
		t.Error("since-fault combined with an explicit window start accepted")
	}
}

func TestCompareAlphaAndMinEffect(t *testing.T) {
	base := view(rateArchive("m", 100, flat(40, 1.0)), "base")
	slight := view(rateArchive("m", 100, flat(40, 1.05)), "slight")
	rep, err := Compare(base, slight, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deltas[0].Verdict != VerdictRegression {
		t.Fatalf("constant +5%% shift should be significant: %+v", rep.Deltas[0])
	}
	// MinEffect floors it back to unchanged.
	rep, err = Compare(base, slight, CompareOptions{MinEffect: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deltas[0].Verdict != VerdictUnchanged {
		t.Errorf("min-effect 0.10 kept a 5%% change significant: %+v", rep.Deltas[0])
	}
	if _, err := Compare(base, slight, CompareOptions{Alpha: 0.2}); err == nil {
		t.Error("unsupported alpha accepted")
	}
	if _, err := Compare(base, slight, CompareOptions{Alpha: 0.10}); err != nil {
		t.Errorf("alpha 0.10 refused: %v", err)
	}
	if _, err := Compare(base, slight, CompareOptions{MinEffect: -1}); err == nil {
		t.Error("negative min-effect accepted")
	}
}
