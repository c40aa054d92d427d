package perfdb

// Machine-readable renderings of the analytics plane for CI pipelines:
// `pperf db show|diff|trend -format=json` emit these. Field names are a
// stable interface, documented in PERFDB.md; additions are allowed,
// renames and removals are not. Every float that can be undefined (a
// relative change against a zero base) is a pointer omitted when absent,
// keeping the documents valid JSON (no NaNs).

import (
	"encoding/json"
	"math"

	"pperf/internal/datasource"
	"pperf/internal/stats"
)

// jsonWindow is the "window" object of a windowed diff document.
type jsonWindow struct {
	FromS      float64  `json:"from_s"`
	ToS        *float64 `json:"to_s,omitempty"` // absent: open-ended
	SinceFault bool     `json:"since_fault,omitempty"`
}

// jsonPair names one metric-focus pair.
type jsonPair struct {
	Metric string `json:"metric"`
	Focus  string `json:"focus"`
}

// jsonRow is the head of every diff and trend row.
type jsonRow struct {
	jsonPair
	Verdict Verdict `json:"verdict"`
	Reason  string  `json:"reason,omitempty"`
}

// jsonDelta is one compared pair of a diff document.
type jsonDelta struct {
	jsonRow
	BaseRate  float64    `json:"base_rate"`
	NewRate   float64    `json:"new_rate"`
	MeanDiff  float64    `json:"mean_diff"`
	CI        [2]float64 `json:"ci"`
	RelChange *float64   `json:"rel_change,omitempty"`
	Bins      int        `json:"bins"`
	BinWidthS float64    `json:"bin_width_s"`
}

// jsonDiff is the `db diff -format=json` document.
type jsonDiff struct {
	Base RunMeta `json:"base"`
	New  RunMeta `json:"new"`

	Window    *jsonWindow `json:"window,omitempty"`
	Alpha     float64     `json:"alpha"`
	MinEffect float64     `json:"min_effect,omitempty"`

	Deltas   []jsonDelta `json:"deltas"`
	OnlyBase []jsonPair  `json:"only_base,omitempty"`
	OnlyNew  []jsonPair  `json:"only_new,omitempty"`

	Pairs       int `json:"pairs"`
	Significant int `json:"significant"`
	Regressions int `json:"regressions"`
}

func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func ciArray(ci stats.Interval) [2]float64 { return [2]float64{ci.Lo, ci.Hi} }

func pairJSON(p datasource.Pair) jsonPair {
	return jsonPair{Metric: p.Metric, Focus: p.Focus.String()}
}

func rowJSON(p datasource.Pair, v Verdict, reason string) jsonRow {
	return jsonRow{jsonPair: pairJSON(p), Verdict: v, Reason: reason}
}

// RenderJSON produces the report's stable machine-readable form,
// indented, with a trailing newline, ready for stdout.
func (r *DiffReport) RenderJSON() ([]byte, error) {
	doc := jsonDiff{Base: r.Base, New: r.New, Alpha: r.Alpha, MinEffect: r.MinEffect}
	if r.Window.Enabled() {
		w := &jsonWindow{FromS: r.Window.From.Seconds(), SinceFault: r.SinceFault}
		if r.Window.To > 0 {
			to := r.Window.To.Seconds()
			w.ToS = &to
		}
		doc.Window = w
	}
	doc.Deltas = []jsonDelta{} // an empty report still carries the key
	for _, d := range r.Deltas {
		jd := jsonDelta{jsonRow: rowJSON(d.Pair, d.Verdict, d.Skipped)}
		if d.Skipped == "" {
			jd.BaseRate = d.BaseRate
			jd.NewRate = d.NewRate
			jd.MeanDiff = d.MeanDiff
			jd.CI = ciArray(d.CI)
			jd.RelChange = finite(d.RelChange)
			jd.Bins = d.Bins
			jd.BinWidthS = d.BinWidth.Seconds()
		}
		doc.Deltas = append(doc.Deltas, jd)
		if d.Verdict.significant() {
			doc.Significant++
		}
		if d.Verdict == VerdictRegression {
			doc.Regressions++
		}
	}
	doc.Pairs = len(r.Deltas)
	for _, p := range r.OnlyBase {
		doc.OnlyBase = append(doc.OnlyBase, pairJSON(p))
	}
	for _, p := range r.OnlyNew {
		doc.OnlyNew = append(doc.OnlyNew, pairJSON(p))
	}
	return marshalDoc(doc)
}

// jsonSeriesTrend is one fitted series of a trend document.
type jsonSeriesTrend struct {
	jsonRow
	Rates    []float64  `json:"rates,omitempty"`
	Slope    float64    `json:"slope"`
	CI       [2]float64 `json:"ci"`
	RelSlope *float64   `json:"rel_slope,omitempty"`
	FirstBad string     `json:"first_bad,omitempty"`
}

// jsonTrend is the `db trend -format=json` document.
type jsonTrend struct {
	Program   string    `json:"program"`
	Runs      []RunMeta `json:"runs"`
	Alpha     float64   `json:"alpha"`
	MinEffect float64   `json:"min_effect"`

	Series []jsonSeriesTrend `json:"series"`

	Fit      int `json:"fit"`
	Drifting int `json:"drifting"`
}

// RenderJSON produces the trend report's stable machine-readable form.
func (r *TrendReport) RenderJSON() ([]byte, error) {
	doc := jsonTrend{
		Program: r.Program, Runs: r.Runs,
		Alpha: r.Alpha, MinEffect: r.MinEffect,
		Series: []jsonSeriesTrend{},
	}
	for _, s := range r.Series {
		js := jsonSeriesTrend{jsonRow: rowJSON(s.Pair, s.Verdict, s.Skipped), FirstBad: s.FirstBad}
		if s.Skipped == "" {
			js.Rates = s.Rates
			js.Slope = s.Slope
			js.CI = ciArray(s.CI)
			js.RelSlope = finite(s.RelSlope)
		}
		doc.Series = append(doc.Series, js)
		if s.Verdict.significant() {
			doc.Drifting++
		}
	}
	doc.Fit = len(r.Series)
	return marshalDoc(doc)
}

// jsonSeriesInfo is one collected series of a show document.
type jsonSeriesInfo struct {
	jsonPair
	Total     float64 `json:"total"`
	Bins      int     `json:"bins"`
	BinWidthS float64 `json:"bin_width_s"`
}

// jsonShow is the `db show -format=json` document.
type jsonShow struct {
	Run       RunMeta          `json:"run"`
	Coverage  float64          `json:"coverage"`
	Processes int              `json:"processes"`
	Series    []jsonSeriesInfo `json:"series"`
}

// SummaryJSON produces the run's stable machine-readable summary — the
// JSON form of `db show`.
func (rv *RunView) SummaryJSON() ([]byte, error) {
	doc := jsonShow{
		Run:       rv.Meta,
		Coverage:  rv.Coverage(),
		Processes: rv.ProcessCount(),
		Series:    []jsonSeriesInfo{},
	}
	for _, p := range rv.Pairs() {
		h := rv.SeriesFor(p).Histogram()
		doc.Series = append(doc.Series, jsonSeriesInfo{
			jsonPair:  pairJSON(p),
			Total:     h.Total(),
			Bins:      h.NumFilled(),
			BinWidthS: h.BinWidth().Seconds(),
		})
	}
	return marshalDoc(doc)
}

// marshalDoc indents and newline-terminates a document for stdout.
func marshalDoc(doc any) ([]byte, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
