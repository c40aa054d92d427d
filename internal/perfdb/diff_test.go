package perfdb

import (
	"math"
	"os"
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

var testFocus = resource.Focus{CodePath: "/Code", MachinePath: "/Machine", SyncPath: "/SyncObject"}

// rateArchive builds a run archive whose metric accumulates the given
// per-bin deltas at 50ms bins (numBins controls folding: deltas past the
// array force the histogram to coarser widths).
func rateArchive(metricName string, numBins int, deltas []float64) *session.Archive {
	a := &session.Archive{Header: session.Header{
		Version:  session.Version,
		NumBins:  numBins,
		BinWidth: 50 * sim.Millisecond,
		Meta:     map[string]string{"program": "synthetic"},
	}}
	a.Events = append(a.Events, session.Event{Kind: session.EvEnable, Metric: metricName, Focus: testFocus})
	for i, d := range deltas {
		a.Events = append(a.Events, session.Event{Kind: session.EvSamples, Samples: []datasource.Sample{{
			Metric: metricName, Focus: testFocus, Proc: "p{0}",
			Time: sim.Time(i) * sim.Time(50*sim.Millisecond), Delta: d, Value: d,
		}}})
	}
	a.Header.NumEvents = len(a.Events)
	return a
}

func view(a *session.Archive, id string) *RunView {
	return openArchive(a, RunMeta{ID: id})
}

// openArchive writes a hand-built archive to a file and opens it as the store
// opens a run.
func openArchive(a *session.Archive, m RunMeta) *RunView {
	f, err := os.CreateTemp("", "run-*.ppdb")
	if err != nil {
		panic(err)
	}
	defer os.Remove(f.Name())
	err = WriteArchive(f, a)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	var rv *RunView
	if err == nil {
		rv, err = openRun(f.Name(), m)
	}
	if err != nil {
		panic(err)
	}
	return rv
}

// compareDefault is Compare over the whole run at the default thresholds.
func compareDefault(t *testing.T, base, neu *RunView) *DiffReport {
	t.Helper()
	rep, err := Compare(base, neu, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func flat(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestDiffDetectsRegressionAndImprovement(t *testing.T) {
	base := view(rateArchive("m", 100, flat(40, 1.0)), "base")
	worse := view(rateArchive("m", 100, flat(40, 2.0)), "worse")
	better := view(rateArchive("m", 100, flat(40, 0.5)), "better")

	rep := compareDefault(t, base, worse)
	if len(rep.Deltas) != 1 {
		t.Fatalf("deltas: %+v", rep.Deltas)
	}
	d := rep.Deltas[0]
	if d.Verdict != VerdictRegression {
		t.Errorf("doubled rate: verdict %s (%+v)", d.Verdict, d)
	}
	if math.Abs(d.RelChange-1.0) > 1e-9 {
		t.Errorf("doubled rate: RelChange %v, want 1.0", d.RelChange)
	}
	if len(rep.Regressions()) != 1 {
		t.Errorf("Regressions(): %+v", rep.Regressions())
	}

	if d := compareDefault(t, base, better).Deltas[0]; d.Verdict != VerdictImprovement {
		t.Errorf("halved rate: verdict %s", d.Verdict)
	}
	if d := compareDefault(t, base, view(rateArchive("m", 100, flat(40, 1.0)), "same")).Deltas[0]; d.Verdict != VerdictUnchanged {
		t.Errorf("identical rate: verdict %s", d.Verdict)
	}
}

func TestDiffRebinsFoldedHistograms(t *testing.T) {
	// The new run's 10-bin histogram folds twice over 40 samples
	// (50ms -> 200ms); the base's 100-bin histogram never folds. The
	// comparison must rebin base to 200ms and report no change for equal
	// totals.
	base := view(rateArchive("m", 100, flat(40, 1.0)), "base")
	folded := view(rateArchive("m", 10, flat(40, 1.0)), "folded")
	if got := folded.SeriesFor(datasource.Pair{Metric: "m", Focus: testFocus}).Histogram().BinWidth(); got != 200*sim.Millisecond {
		t.Fatalf("folded histogram width %v, want 200ms", got)
	}
	rep := compareDefault(t, base, folded)
	d := rep.Deltas[0]
	if d.Verdict != VerdictUnchanged {
		t.Errorf("equal data at different granularities: %s (%+v)", d.Verdict, d)
	}
	if d.BinWidth != 200*sim.Millisecond {
		t.Errorf("compared at %v, want the coarser 200ms", d.BinWidth)
	}
}

func TestDiffDisjointPairs(t *testing.T) {
	base := view(rateArchive("only_base", 100, flat(40, 1.0)), "a")
	neu := view(rateArchive("only_new", 100, flat(40, 1.0)), "b")
	rep := compareDefault(t, base, neu)
	if len(rep.Deltas) != 0 || len(rep.OnlyBase) != 1 || len(rep.OnlyNew) != 1 {
		t.Errorf("disjoint runs: deltas=%d onlyBase=%v onlyNew=%v", len(rep.Deltas), rep.OnlyBase, rep.OnlyNew)
	}
	if !strings.Contains(rep.Render(), "only in base: only_base") {
		t.Error("render omits one-sided pairs")
	}
}

func TestDiffRenderDeterministic(t *testing.T) {
	mk := func() string {
		base := view(rateArchive("m", 100, flat(40, 1.0)), "base")
		worse := view(rateArchive("m", 100, flat(40, 3.0)), "worse")
		return compareDefault(t, base, worse).Render()
	}
	if mk() != mk() {
		t.Error("diff render differs across identical rebuilds")
	}
}

func TestDiffTooFewBinsSkips(t *testing.T) {
	base := view(rateArchive("m", 100, flat(2, 1.0)), "base")
	neu := view(rateArchive("m", 100, flat(2, 2.0)), "new")
	d := compareDefault(t, base, neu).Deltas[0]
	if d.Verdict != VerdictSkipped || d.Skipped == "" {
		t.Errorf("2-bin series: %s %q", d.Verdict, d.Skipped)
	}
}
