package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// metricValue is one reported metric: the value the benchmark stands by
// (the median of the per-rep samples for counts, the best of them for host
// time, the greatest for peak RSS), and the samples with their quartiles.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadReport is one workload's part of a result file.
type workloadReport struct {
	Reps int `json:"reps"`
	// ResultDigest is the digest every rep of the run produced. A change
	// that only speeds the simulator up must leave it identical.
	ResultDigest string `json:"result_digest"`
	OpUnit       string `json:"op_unit"`
	LatOp        string `json:"latency_op"`
	// RepWallS lists every measured rep's wall time in run order.
	RepWallS []float64 `json:"rep_wall_s"`
	// LatSamples is how many timed calls a rep makes (the sample count of
	// op_p50_ms/op_p95_ms), and TailPct the percentile op_p95_ms reports on
	// this workload.
	LatSamples int                    `json:"latency_samples"`
	TailPct    int                    `json:"tail_percentile"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
}

// report is a result file (bench/out/BENCH_<commit>.json).
type report struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"reps,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`
	// HostFactor is the fastest calibration run of the benchmark run over
	// the kernel's time on the quiet sandbox; setup_s is divided by it.
	HostFactor float64 `json:"host_factor"`
	// TotalS is the wall time of the whole benchmark run.
	TotalS    float64                    `json:"total_s"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// the spreads computed here are the ones the driver computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile is the p-th percentile of xs by linear interpolation between
// closest ranks.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(p) / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summarize builds a metricValue whose value is the median of the samples.
func summarize(unit string, samples []float64) metricValue {
	q1, med, q3 := quartiles(samples)
	return metricValue{Value: med, Unit: unit, Q1: q1, Q3: q3, Samples: samples}
}

// Host-time metrics are each the best (least, for ops_per_s greatest) value
// seen over a run's reps, never a median: noise on a shared host only ever
// adds time, and on the sandbox it comes in spells that slow everything by
// a third for anything from ten seconds to many minutes, so the fastest
// occurrence is what the program costs when the machine is left alone. The
// README's "Noise" section has the measurements behind this. Counts and
// correctness are taken over all reps.

// best is the least of xs, or the greatest when higher is better.
func best(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	b := xs[0]
	for _, x := range xs {
		if (better == "higher" && x > b) || (better != "higher" && x < b) {
			b = x
		}
	}
	return b
}

// quietLatencies returns one latency per timed call of a rep: the fastest
// occurrence of that call across the run's reps. Every rep of a run makes
// the same calls in the same order, so calls are matched by position.
func quietLatencies(reps []*childRun) []float64 {
	var lat []float64
	for _, r := range reps {
		if lat == nil {
			lat = append(lat, r.LatMS...)
			continue
		}
		if len(r.LatMS) < len(lat) {
			lat = lat[:len(r.LatMS)]
		}
		for i := range lat {
			if r.LatMS[i] < lat[i] {
				lat[i] = r.LatMS[i]
			}
		}
	}
	return lat
}

// endToEndMetrics computes a workload's end-to-end metrics from its
// measured reps and the run's set-up times (already over the host factor). Every metric keeps its per-rep
// samples and their quartiles.
func endToEndMetrics(w *workloadDef, reps []*childRun, setups []float64) map[string]metricValue {
	perRep := func(name string, f func(*childRun) float64) metricValue {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return summarize(metricByName(endToEnd, name).Unit, xs)
	}
	out := map[string]metricValue{
		"setup_s":        summarize("s", setups),
		"wall_s":         perRep("wall_s", func(r *childRun) float64 { return r.WallS }),
		"cpu_s":          perRep("cpu_s", func(r *childRun) float64 { return r.CPUS }),
		"ops_per_s":      perRep("ops_per_s", func(r *childRun) float64 { return r.Ops / r.WallS }),
		"alloc_mb":       perRep("alloc_mb", func(r *childRun) float64 { return r.AllocMB }),
		"mallocs_k":      perRep("mallocs_k", func(r *childRun) float64 { return r.MallocsK }),
		"peak_rss_mb":    perRep("peak_rss_mb", func(r *childRun) float64 { return r.RSSMB }),
		"artifact_bytes": perRep("artifact_bytes", func(r *childRun) float64 { return float64(r.ArtifactBytes) }),
	}
	for _, name := range []string{"setup_s", "wall_s", "cpu_s", "ops_per_s"} {
		mv := out[name]
		mv.Value = best(mv.Samples, metricByName(endToEnd, name).Better)
		out[name] = mv
	}
	// Peak RSS is the greatest over the reps: where the collector's cycles
	// fall decides whether a rep stops short of the ceiling the live heap
	// sets, so the median of a run's reps moves (14% between runs on
	// store-cycle) and their greatest does not (2%).
	rss := out["peak_rss_mb"]
	rss.Value = slices.Max(rss.Samples)
	out["peak_rss_mb"] = rss
	lat := quietLatencies(reps)
	for name, pct := range map[string]int{"op_p50_ms": 50, "op_p95_ms": w.TailPct} {
		mv := perRep(name, func(r *childRun) float64 { return percentile(r.LatMS, pct) })
		mv.Value = percentile(lat, pct)
		out[name] = mv
	}
	att, failed := 0, 0
	for _, r := range reps {
		att += r.Attempted
		failed += r.Failed
	}
	mv := perRep("pass_ratio", func(r *childRun) float64 {
		return float64(r.Attempted-r.Failed) / float64(r.Attempted)
	})
	mv.Value = float64(att-failed) / float64(att)
	out["pass_ratio"] = mv
	return out
}

// driverLine renders the one-line result the benchmark contract asks for,
// with the metrics BENCHMARK.json lists under end_to_end or, for a traced
// run, under per_layer: the workload's host-time metrics and its layer
// metrics.
func driverLine(wr *workloadReport, traced bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	add := func(d metricDef, src map[string]metricValue) error {
		v, ok := src[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not a number", d.Name)
		}
		metrics[d.Name] = mv{v.Value, d.Unit}
		return nil
	}
	for _, d := range endToEnd {
		if d.HostTime == traced {
			if err := add(d, wr.EndToEnd); err != nil {
				return nil, err
			}
		}
	}
	if traced {
		for _, d := range perLayer {
			if err := add(d, wr.PerLayer); err != nil {
				return nil, err
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
}

// printTable writes every metric of the report by name with its unit.
func printTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "pperf bench  commit %s  %s  nproc %d  gomaxprocs %d  seed %d", rep.Commit, rep.GoVersion, rep.NProc, rep.GoMaxProcs, rep.Seed)
	if rep.Seconds > 0 {
		fmt.Fprintf(w, "  %.0f s per workload", rep.Seconds)
	} else {
		fmt.Fprintf(w, "  %d reps", rep.Reps)
	}
	fmt.Fprintf(w, "  host factor %.3f  total %.1f s\n", rep.HostFactor, rep.TotalS)
	names := make([]string, 0, len(rep.Workloads))
	for _, wd := range workloads {
		if rep.Workloads[wd.Name] != nil {
			names = append(names, wd.Name)
		}
	}
	fmt.Fprintf(w, "\n%-16s %-6s", "end-to-end", "unit")
	for _, n := range names {
		fmt.Fprintf(w, " %14s", n)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-16s %-6s", d.Name, d.Unit)
		for _, n := range names {
			fmt.Fprintf(w, " %14s", fmtValue(rep.Workloads[n].EndToEnd[d.Name].Value))
		}
		fmt.Fprintln(w)
	}
	for _, n := range names {
		wr := rep.Workloads[n]
		fmt.Fprintf(w, "%s: %d reps, %d/%d calls failed, op = %s, latency of %d x %s (tail = p%d), digest %.16s\n",
			n, wr.Reps, wr.Failed, wr.Attempted, wr.OpUnit, wr.LatSamples, wr.LatOp, wr.TailPct, wr.ResultDigest)
		fmt.Fprintf(w, "  rep wall_s:")
		for _, x := range wr.RepWallS {
			fmt.Fprintf(w, " %.3f", x)
		}
		fmt.Fprintln(w)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
	if rep.Workloads[names[0]].PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "\n%-32s %-6s", "per-layer (attribution pass)", "unit")
	for _, n := range names {
		fmt.Fprintf(w, " %14s", n)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-32s %-6s", d.Name, d.Unit)
		for _, n := range names {
			fmt.Fprintf(w, " %14s", fmtValue(rep.Workloads[n].PerLayer[d.Name].Value))
		}
		fmt.Fprintln(w)
	}
}

// fmtValue prints a number with four significant digits, or "-" for an
// exact zero (a layer metric that does not apply to the workload).
func fmtValue(v float64) string {
	if v == 0 {
		return "-"
	}
	s := fmt.Sprintf("%.4g", v)
	if strings.Contains(s, "e+") {
		s = fmt.Sprintf("%.0f", v)
	}
	return s
}
