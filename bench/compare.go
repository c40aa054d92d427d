package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one (metric, workload) row of a comparison.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   metricValue
	// Delta is B's value relative to A's, signed so that positive is
	// worse whatever the metric's direction.
	Delta   float64
	Bound   float64
	Spread  float64 // the wider interquartile range over A's median
	Verdict string
}

// judge classifies B against A for a metric with the given direction and
// bound. When the rep-to-rep spread is wider than the bound the values
// cannot settle it: the row is unresolved unless every sample of one side
// beats every sample of the other.
func judge(a, b metricValue, better string, bound float64) (delta, spread float64, verdict string) {
	if a.Value == 0 {
		if b.Value == 0 {
			return 0, 0, verdictWithin
		}
		return 0, 0, verdictUnresolved
	}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	base := a.Value
	if base < 0 {
		base = -base
	}
	delta = sign * (b.Value - a.Value) / base
	spread = (a.Q3 - a.Q1) / base
	if s := (b.Q3 - b.Q1) / base; s > spread {
		spread = s
	}
	if spread > bound {
		switch {
		case separated(b.Samples, a.Samples, sign):
			return delta, spread, verdictBetter
		case separated(a.Samples, b.Samples, sign):
			return delta, spread, verdictWorse
		}
		return delta, spread, verdictUnresolved
	}
	switch {
	case delta > bound:
		verdict = verdictWorse
	case delta < -bound:
		verdict = verdictBetter
	default:
		verdict = verdictWithin
	}
	return delta, spread, verdict
}

// separated reports whether every sample of x is better than every sample
// of y (sign +1: lower is better; -1: higher is better).
func separated(x, y []float64, sign float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	worstX, bestY := sign*x[0], sign*y[0]
	for _, v := range x {
		if sign*v > worstX {
			worstX = sign * v
		}
	}
	for _, v := range y {
		if sign*v < bestY {
			bestY = sign * v
		}
	}
	return worstX < bestY
}

// compareReports compares two result files row by row. The second result
// is whether B is acceptable: no row worse, no workload with a lower pass
// ratio or a different result digest.
func compareReports(a, b *report) (rows []compareRow, notes []string, ok bool) {
	ok = true
	shared := 0
	for _, w := range workloads {
		n := w.Name
		wa, wb := a.Workloads[n], b.Workloads[n]
		if wa == nil || wb == nil {
			continue
		}
		shared++
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			delta, spread, verdict := judge(va, vb, d.Better, d.Bound)
			rows = append(rows, compareRow{n, d.Name, d.Unit, va, vb, delta, d.Bound, spread, verdict})
			if verdict == verdictWorse {
				ok = false
			}
		}
		if pa, pb := wa.EndToEnd["pass_ratio"].Value, wb.EndToEnd["pass_ratio"].Value; pb < pa {
			notes = append(notes, fmt.Sprintf("%s: pass_ratio fell from %g to %g", n, pa, pb))
			ok = false
		}
		switch {
		case a.Seed != b.Seed:
			// Different seeds generate different inputs; digests differ by design.
		case wa.ResultDigest != wb.ResultDigest:
			notes = append(notes, fmt.Sprintf("%s: result_digest differs (%.16s vs %.16s): the program's outputs changed", n, wa.ResultDigest, wb.ResultDigest))
			ok = false
		default:
			notes = append(notes, fmt.Sprintf("%s: result_digest identical (%.16s)", n, wa.ResultDigest))
		}
	}
	if shared == 0 {
		notes = append(notes, "the two files share no workload")
		ok = false
	}
	return rows, notes, ok
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (not a bench result file?)", path)
	}
	return &r, nil
}

// compareMain is `bench -compare A.json B.json`; it exits 1 when B is not
// acceptable against A.
func compareMain(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rows, notes, ok := compareReports(a, b)
	fmt.Fprintf(w, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\n\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-14s %-15s %-6s %12s %25s %12s %25s %8s %6s %7s  %s\n",
		"workload", "metric", "unit", "A value", "A [q1, q3]", "B value", "B [q1, q3]", "delta", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-15s %-6s %12s %25s %12s %25s %+7.1f%% %5.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Unit,
			fmtValue(r.A.Value), fmt.Sprintf("[%s, %s]", fmtValue(r.A.Q1), fmtValue(r.A.Q3)),
			fmtValue(r.B.Value), fmt.Sprintf("[%s, %s]", fmtValue(r.B.Q1), fmtValue(r.B.Q3)),
			100*r.Delta, 100*r.Bound, 100*r.Spread, r.Verdict)
	}
	fmt.Fprintln(w, "\ndelta is B against A with worse counted positive; spread is the wider interquartile range of the per-rep samples over A's value.")
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	if !ok {
		fmt.Fprintln(w, "RESULT: B is worse than A")
		return 1
	}
	fmt.Fprintln(w, "RESULT: no metric worse")
	return 0
}
