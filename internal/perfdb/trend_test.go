package perfdb

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// trendViews builds one synthetic run per rate level: metric "m" at a
// constant per-bin delta, 40 bins of 50ms.
func trendViews(levels ...float64) []*RunView {
	var out []*RunView
	for i, lv := range levels {
		id := []string{"r0001", "r0002", "r0003", "r0004", "r0005", "r0006"}[i]
		a := rateArchive("m", 100, flat(40, lv))
		out = append(out, openArchive(a, RunMeta{ID: id, Program: "synthetic"}))
	}
	return out
}

func TestTrendFlatIsStable(t *testing.T) {
	rep, err := Trend(trendViews(1, 1, 1, 1, 1), TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 1 {
		t.Fatalf("series: %+v", rep.Series)
	}
	if s := rep.Series[0]; s.Verdict != TrendStable || s.FirstBad != "" {
		t.Errorf("flat series: %+v", s)
	}
	if len(rep.Drifting()) != 0 {
		t.Error("flat store reported drift")
	}
}

func TestTrendDetectsDriftAndFirstBad(t *testing.T) {
	// Three identical healthy runs, then a sustained doubling: a 2-of-5
	// level shift is significant at alpha 0.10 and the changepoint is the
	// fourth run.
	rep, err := Trend(trendViews(1, 1, 1, 2, 2), TrendOptions{Alpha: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Series[0]
	if s.Verdict != TrendUp {
		t.Fatalf("level shift at alpha 0.10: %+v", s)
	}
	if s.FirstBad != "r0004" {
		t.Errorf("first-bad = %q, want r0004", s.FirstBad)
	}
	// The same shift is not significant at the default 95% level (the
	// t-statistic of a 2-of-5 shift is 3.0 < 3.182 regardless of size).
	rep, err = Trend(trendViews(1, 1, 1, 2, 2), TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Series[0].Verdict; got != TrendStable {
		t.Errorf("level shift at alpha 0.05: %s", got)
	}
}

func TestTrendDetectsImprovementDirection(t *testing.T) {
	rep, err := Trend(trendViews(2, 2, 2, 1, 1), TrendOptions{Alpha: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Series[0]
	if s.Verdict != TrendDown || s.FirstBad != "r0004" {
		t.Errorf("falling cost: %+v", s)
	}
}

func TestTrendMinEffectFloorsSmallDrift(t *testing.T) {
	// A clean monotone ramp is always significant; a 1%-per-run ramp
	// stays under a 20% effect floor.
	rep, err := Trend(trendViews(1.00, 1.01, 1.02, 1.03, 1.04), TrendOptions{MinEffect: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Series[0]; s.Verdict != TrendStable {
		t.Errorf("1%%/run ramp under 20%% floor: %+v", s)
	}
	rep, err = Trend(trendViews(1, 2, 3, 4, 5), TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Series[0]; s.Verdict != TrendUp {
		t.Errorf("steep ramp: %+v", s)
	}
}

func TestTrendPartialPairReported(t *testing.T) {
	views := trendViews(1, 1, 1)
	extra := rateArchive("m", 100, flat(40, 1.0))
	appendSeries(extra, "m_partial", flat(40, 1.0))
	views = append(views, openArchive(extra, RunMeta{ID: "r0004", Program: "synthetic"}))
	rep, err := Trend(views, TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var partial *SeriesTrend
	for i := range rep.Series {
		if rep.Series[i].Pair.Metric == "m_partial" {
			partial = &rep.Series[i]
		}
	}
	if partial == nil {
		t.Fatalf("partial pair dropped: %+v", rep.Series)
	}
	if partial.Verdict != VerdictSkipped || !strings.Contains(partial.Skipped, "1 of 4 runs") {
		t.Errorf("partial pair: %s %q", partial.Verdict, partial.Skipped)
	}
}

func TestTrendErrors(t *testing.T) {
	if _, err := Trend(trendViews(1, 1), TrendOptions{}); err == nil {
		t.Error("2-run trend accepted")
	}
	if _, err := Trend(trendViews(1, 1, 1), TrendOptions{Alpha: 0.2}); err == nil {
		t.Error("unsupported alpha accepted")
	}
	if _, err := Trend(trendViews(1, 1, 1), TrendOptions{MinEffect: -0.1}); err == nil {
		t.Error("negative min-effect accepted")
	}
}

func TestTrendRenderDeterministic(t *testing.T) {
	mk := func() string {
		rep, err := Trend(trendViews(1, 1, 1, 2, 2), TrendOptions{Alpha: 0.10})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	r := mk()
	if r != mk() {
		t.Error("trend render differs across identical rebuilds")
	}
	for _, want := range []string{"perfdb trend: synthetic over 5 runs", "DRIFTING-UP", "first-bad r0004", "1 series fit, 1 drifting"} {
		if !strings.Contains(r, want) {
			t.Errorf("render lacks %q:\n%s", want, r)
		}
	}
}

func TestTrendJSONRoundTrip(t *testing.T) {
	rep, err := Trend(trendViews(1, 1, 1, 2, 2), TrendOptions{Alpha: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Program string `json:"program"`
		Runs    []struct {
			ID string `json:"id"`
		} `json:"runs"`
		Alpha  float64 `json:"alpha"`
		Series []struct {
			Metric   string    `json:"metric"`
			Verdict  string    `json:"verdict"`
			Rates    []float64 `json:"rates"`
			Slope    float64   `json:"slope"`
			FirstBad string    `json:"first_bad"`
		} `json:"series"`
		Fit      int `json:"fit"`
		Drifting int `json:"drifting"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if doc.Program != "synthetic" || len(doc.Runs) != 5 || doc.Alpha != 0.10 {
		t.Errorf("doc header: %+v", doc)
	}
	s := doc.Series[0]
	if s.Metric != "m" || s.Verdict != "DRIFTING-UP" || s.FirstBad != "r0004" || len(s.Rates) != 5 {
		t.Errorf("doc series: %+v", s)
	}
	if s.Slope <= 0 {
		t.Errorf("slope = %g", s.Slope)
	}
	if doc.Fit != 1 || doc.Drifting != 1 {
		t.Errorf("counts: fit=%d drifting=%d", doc.Fit, doc.Drifting)
	}
}

func TestDiffJSONRoundTrip(t *testing.T) {
	base, neu := goldenPair()
	rep, err := Compare(base, neu, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Base struct {
			ID string `json:"id"`
		} `json:"base"`
		Window *struct{} `json:"window"`
		Alpha  float64   `json:"alpha"`
		Deltas []struct {
			Metric    string     `json:"metric"`
			Verdict   string     `json:"verdict"`
			Reason    string     `json:"reason"`
			RelChange *float64   `json:"rel_change"`
			CI        [2]float64 `json:"ci"`
		} `json:"deltas"`
		OnlyBase    []struct{} `json:"only_base"`
		OnlyNew     []struct{} `json:"only_new"`
		Pairs       int        `json:"pairs"`
		Significant int        `json:"significant"`
		Regressions int        `json:"regressions"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if doc.Base.ID != "base" || doc.Window != nil || doc.Alpha != 0.05 {
		t.Errorf("doc header: %+v", doc)
	}
	if doc.Pairs != 4 || doc.Significant != 2 || doc.Regressions != 1 {
		t.Errorf("summary: %+v", doc)
	}
	byName := map[string]string{}
	for _, d := range doc.Deltas {
		byName[d.Metric] = d.Verdict
	}
	if byName["m_reg"] != "REGRESSION" || byName["m_imp"] != "improvement" ||
		byName["m_same"] != "unchanged" || byName["m_short"] != "skipped" {
		t.Errorf("verdicts: %v", byName)
	}
	if len(doc.OnlyBase) != 1 || len(doc.OnlyNew) != 1 {
		t.Errorf("one-sided pairs: %+v", doc)
	}
	// A rise from zero has no finite relative change: the field must be
	// absent, not NaN (NaN would make the whole document invalid).
	zbase := view(rateArchive("mz", 100, flat(40, 0)), "zb")
	znew := view(rateArchive("mz", 100, flat(40, 1.0)), "zn")
	zrep, err := Compare(zbase, znew, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(zrep.Deltas[0].RelChange) {
		t.Fatalf("rise-from-zero rel change: %+v", zrep.Deltas[0])
	}
	zraw, err := zrep.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(zraw), "NaN") {
		t.Errorf("NaN leaked into JSON:\n%s", zraw)
	}
	var zdoc struct {
		Deltas []map[string]any `json:"deltas"`
	}
	if err := json.Unmarshal(zraw, &zdoc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, present := zdoc.Deltas[0]["rel_change"]; present {
		t.Error("rel_change present for a rise-from-zero delta")
	}
}

func TestShowJSON(t *testing.T) {
	rv := view(rateArchive("m", 100, flat(40, 1.0)), "r0001")
	raw, err := rv.SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Run struct {
			ID string `json:"id"`
		} `json:"run"`
		Coverage float64 `json:"coverage"`
		Series   []struct {
			Metric    string  `json:"metric"`
			Total     float64 `json:"total"`
			Bins      int     `json:"bins"`
			BinWidthS float64 `json:"bin_width_s"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if doc.Run.ID != "r0001" || len(doc.Series) != 1 {
		t.Errorf("doc: %+v", doc)
	}
	if s := doc.Series[0]; s.Metric != "m" || s.Total != 40 || s.Bins != 40 || s.BinWidthS != 0.05 {
		t.Errorf("series: %+v", s)
	}
}
