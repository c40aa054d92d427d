package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload, and every ablation variant, in
// process at smoke scale: the correctness checks must pass, a second run
// must reproduce the digest, and fixtures built for another seed must be
// refused.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	fx := filepath.Join(dir, "fixtures")
	if _, err := buildFixtures(fx, 7, &smokeScale); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		var digest string
		for i, variant := range append([]string{"", ""}, w.Variants...) {
			tmp := filepath.Join(dir, w.Name, variant, string(rune('a'+i)))
			res, err := runRep(w.Name, variant, &smokeScale, 7, fx, tmp, newSpanRec(w.Name))
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, variant, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s/%s: %d of %d calls failed: %v", w.Name, variant, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.LatMS) != res.Attempted {
				t.Errorf("%s/%s: %d latencies for %d calls", w.Name, variant, len(res.LatMS), res.Attempted)
			}
			if variant != "" {
				continue
			}
			if res.Ops <= 0 || res.ArtifactBytes <= 0 || len(res.Spans) == 0 {
				t.Errorf("%s: ops %v, artifact bytes %d, %d spans", w.Name, res.Ops, res.ArtifactBytes, len(res.Spans))
			}
			if i == 1 && res.Digest != digest {
				t.Errorf("%s: second run's digest %s differs from the first's %s", w.Name, res.Digest, digest)
			}
			digest = res.Digest
		}
	}
	_, err := runRep("store-cycle", "", &smokeScale, 8, fx, filepath.Join(dir, "stale"), nil)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("fixtures of seed 7 accepted for seed 8: %v", err)
	}
}

// TestRegistryWithinContract holds the registry to the limits of the
// benchmark contract.
func TestRegistryWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	host := 0
	for _, m := range endToEnd {
		if m.HostTime {
			host++ // listed under per_layer in the manifest
		}
	}
	if n := len(endToEnd) - host; n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer) + host; n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		if workloadFuncs[w.Name] == nil {
			t.Errorf("%s has no rep body", w.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Def == "" {
			t.Errorf("%s has no definition", m.Name)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" || m.Source == "" {
			t.Errorf("%s lacks its prediction or source", m.Name)
		}
	}
	if s := metricByName(endToEnd, "setup_s"); s == nil || s.Unit != "s" || s.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestManifestIsCheckedIn fails when BENCHMARK.json is not what the
// registry generates (regenerate with `bash bench/run.sh -manifest`).
func TestManifestIsCheckedIn(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -manifest`")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(want))
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func registered(defs []metricDef, sources ...string) []string {
	var out []string
	for _, d := range defs {
		if len(sources) == 0 || slices.Contains(sources, d.Source) {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s:\nemitted    %v\nregistered %v", what, got, want)
	}
}

// TestEmittedNamesAreRegistered checks, producer by producer, that the
// harness emits exactly the metric names the registry (and so
// BENCHMARK.json) lists.
func TestEmittedNamesAreRegistered(t *testing.T) {
	rep := &childRun{Loops: 1, WallS: 1, CPUS: 1, RSSMB: 1}
	rep.repResult = repResult{Ops: 1, LatMS: []float64{1}, Attempted: 1, Counts: map[string]float64{}, Maxes: map[string]float64{}}
	sameNames(t, "end-to-end", keys(endToEndMetrics(&workloads[0], []*childRun{rep}, []float64{1})), registered(endToEnd))

	micro, err := runMicro(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "micro drivers", keys(micro), registered(perLayer, "micro"))
	for k, v := range micro {
		if v <= 0 && !strings.HasSuffix(k, "_allocs") {
			t.Errorf("micro driver metric %s = %v", k, v)
		}
	}

	vals := map[string]float64{}
	spanMetrics(vals, rep)
	sameNames(t, "spans and counts", keys(vals), registered(perLayer, "span", "count"))

	abl := map[string]float64{}
	for i := range workloads {
		rung := map[string]*childRun{"": rep}
		for _, v := range workloads[i].Variants {
			rung[v] = rep
		}
		for k, v := range ablationMetrics(&workloads[i], rung) {
			abl[k] = v
		}
	}
	sameNames(t, "ablation ladder", keys(abl), registered(perLayer, "ablation"))

	var shares []string
	for _, l := range shareLayers {
		shares = append(shares, "share."+l)
	}
	sort.Strings(shares)
	sameNames(t, "profile shares", shares, registered(perLayer, "share"))
	for k := range profileShares(cannedProfile()) {
		if metricByName(perLayer, k) == nil {
			t.Errorf("profile bucket %s is not registered", k)
		}
	}
}

// --- a canned profile ---------------------------------------------------------

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbField(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	b = pbVarint(b, uint64(len(data)))
	return append(b, data...)
}

// encodeProfile builds a pprof profile whose every location holds one
// function, from stacks given as function names, innermost first.
func encodeProfile(samples []stackSample) []byte {
	strs := []string{""}
	fnID := map[string]uint64{}
	var out []byte
	for _, s := range samples {
		var locs []byte
		for _, fn := range s.Stack {
			if fnID[fn] == 0 {
				strs = append(strs, fn)
				fnID[fn] = uint64(len(strs) - 1) // function id = location id = string index
			}
			locs = pbVarint(locs, fnID[fn])
		}
		var vals []byte
		vals = pbVarint(vals, 1)
		vals = pbVarint(vals, uint64(s.Value))
		out = pbBytes(out, 2, pbBytes(pbBytes(nil, 1, locs), 2, vals))
	}
	for _, id := range fnID {
		line := pbField(nil, 1, id)
		out = pbBytes(out, 4, pbBytes(pbField(nil, 1, id), 4, line))
		out = pbBytes(out, 5, pbField(pbField(nil, 1, id), 2, id))
	}
	for _, s := range strs {
		out = pbBytes(out, 6, []byte(s))
	}
	return out
}

func cannedProfile() []stackSample {
	return []stackSample{
		{Stack: []string{"runtime.mallocgc", "pperf/internal/mpi.(*Comm).Send", "pperf/internal/sim.(*Proc).run"}, Value: 30},
		{Stack: []string{"pperf/internal/sim.(*Engine).Run", "main.p2pFlood"}, Value: 20},
		{Stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, Value: 10},
		{Stack: []string{"runtime.futex", "runtime.notewakeup", "pperf/internal/sim.(*Engine).dispatch"}, Value: 25},
		{Stack: []string{"encoding/gob.(*Encoder).Encode", "pperf/internal/wire.(*Conn).Exchange", "pperf/internal/faults.(*FlakyTransport).Send", "main.tracedTCP"}, Value: 15},
	}
}

// TestProfileShares decodes a canned profile (plain and gzipped) and checks
// the layer shares: they sum to 1 and land in the right buckets.
func TestProfileShares(t *testing.T) {
	raw := encodeProfile(cannedProfile())
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for _, data := range [][]byte{raw, gz.Bytes()} {
		samples, err := parseProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		got := profileShares(samples)
		sum := 0.0
		for k, v := range got {
			if strings.HasPrefix(k, "share.") {
				sum += v
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("shares sum to %v", sum)
		}
		want := map[string]float64{
			"share.mpi": 0.30, "share.sim": 0.45, "share.other": 0.10, "share.wire": 0.15,
			"rt.alloc": 0.30, "rt.gc": 0.10, "rt.sched": 0.25, "rt.gob": 0.15,
		}
		for k, v := range want {
			if math.Abs(got[k]-v) > 1e-9 {
				t.Errorf("%s = %v, want %v", k, got[k], v)
			}
		}
		if len(got) != len(want) {
			t.Errorf("buckets %v", keys(got))
		}
	}
	if _, err := parseProfile([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Error("truncated profile parsed")
	}
}

func TestSelfTimes(t *testing.T) {
	r := newSpanRec("w#0")
	r.do("outer", func() {
		r.do("inner", func() { time.Sleep(2 * time.Millisecond) })
		r.do("inner", func() {})
	})
	got := selfTimes(r.spans)
	if got["inner"].Count != 2 || got["outer"].Count != 1 {
		t.Fatalf("counts %+v", got)
	}
	outer := r.spans[0].EndNS - r.spans[0].StartNS
	if got["outer"].SelfNS+got["inner"].SelfNS != outer {
		t.Errorf("self times %d + %d do not add up to the root span's %d", got["outer"].SelfNS, got["inner"].SelfNS, outer)
	}
	var none *spanRec
	ran := false
	none.do("x", func() { ran = true })
	if !ran {
		t.Error("a nil recorder must still run the call")
	}
}

func TestCalibrate(t *testing.T) {
	if d, err := calibrate(); err != nil || d <= 0 {
		t.Fatalf("calibrate: %v, %v", d, err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v", q1, med, q3)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5}, 90); math.Abs(p-4.6) > 1e-9 {
		t.Errorf("p90 of 1..5 = %v", p)
	}
}

func TestJudge(t *testing.T) {
	mv := func(xs ...float64) metricValue { return summarize("s", xs) }
	cases := []struct {
		name   string
		a, b   metricValue
		better string
		bound  float64
		want   string
	}{
		{"tight and equal", mv(1, 1.01, 0.99, 1, 1), mv(1, 1.01, 1, 1.02, 1), "lower", 0.10, verdictWithin},
		{"tight and slower", mv(1, 1.01, 0.99, 1, 1), mv(1.2, 1.21, 1.19, 1.2, 1.2), "lower", 0.10, verdictWorse},
		{"tight and faster", mv(1, 1.01, 0.99, 1, 1), mv(0.8, 0.81, 0.8, 0.79, 0.8), "lower", 0.10, verdictBetter},
		{"higher is better", mv(100, 101, 99, 100, 100), mv(80, 81, 79, 80, 80), "higher", 0.10, verdictWorse},
		{"noisy and overlapping", mv(1, 1.3, 0.8, 1.2, 0.9), mv(1.2, 1.0, 1.4, 0.9, 1.3), "lower", 0.10, verdictUnresolved},
		{"noisy but separated", mv(1, 1.3, 0.8, 1.2, 0.9), mv(2, 2.3, 1.8, 2.2, 1.9), "lower", 0.10, verdictWorse},
	}
	for _, c := range cases {
		if _, _, got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareReports: a slower B is not acceptable, nor is one whose
// outputs changed; a B within bounds is.
func TestCompareReports(t *testing.T) {
	mk := func(wall float64, digest string) *report {
		e2e := map[string]metricValue{}
		for _, d := range endToEnd {
			e2e[d.Name] = summarize(d.Unit, []float64{1, 1, 1})
		}
		e2e["wall_s"] = summarize("s", []float64{wall, wall * 1.01, wall * 0.99})
		return &report{Seed: 7, Workloads: map[string]*workloadReport{"p2p-flood": {ResultDigest: digest, EndToEnd: e2e}}}
	}
	if _, _, ok := compareReports(mk(1, "d"), mk(1.02, "d")); !ok {
		t.Error("2% slower rejected at a 10% bound")
	}
	if rows, _, ok := compareReports(mk(1, "d"), mk(1.5, "d")); ok || rows[1].Verdict != verdictWorse {
		t.Error("50% slower accepted")
	}
	if _, _, ok := compareReports(mk(1, "d"), mk(1, "e")); ok {
		t.Error("changed digest accepted")
	}
}

// TestDriverLine checks the contract's result line: exactly the four keys;
// untraced, the end-to-end metrics the manifest bounds, each with value and
// unit; traced, the host-time metrics and every layer metric.
func TestDriverLine(t *testing.T) {
	rep := &childRun{Loops: 1, WallS: 2, CPUS: 1, RSSMB: 1}
	rep.repResult = repResult{Ops: 10, LatMS: []float64{1, 2, 3}, Attempted: 3, Failed: 1}
	wr := &workloadReport{Attempted: 3, Failed: 1, EndToEnd: endToEndMetrics(&workloads[0], []*childRun{rep}, []float64{1, 2, 3})}
	type mv struct {
		Value float64
		Unit  string
	}
	parse := func(line []byte) map[string]mv {
		t.Helper()
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatal(err)
		}
		sameNames(t, "result line keys", keys(doc), []string{"attempted", "correct", "failed", "metrics"})
		if string(doc["correct"]) != "false" || string(doc["failed"]) != "1" {
			t.Errorf("line %s", line)
		}
		var metrics map[string]mv
		if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		return metrics
	}
	var bounded, hostTime []string
	for _, d := range endToEnd {
		if d.HostTime {
			hostTime = append(hostTime, d.Name)
		} else {
			bounded = append(bounded, d.Name)
		}
	}
	sort.Strings(bounded)

	line, err := driverLine(wr, false)
	if err != nil {
		t.Fatal(err)
	}
	metrics := parse(line)
	sameNames(t, "result line metrics", keys(metrics), bounded)
	if metrics["setup_s"] != (mv{1, "s"}) {
		t.Errorf("setup_s %+v", metrics["setup_s"])
	}

	if _, err := driverLine(wr, true); err == nil {
		t.Error("a traced line without per-layer metrics must fail")
	}
	wr.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		wr.PerLayer[d.Name] = metricValue{Value: 1, Unit: d.Unit}
	}
	if line, err = driverLine(wr, true); err != nil {
		t.Fatal(err)
	}
	metrics = parse(line)
	traced := append(registered(perLayer), hostTime...)
	sort.Strings(traced)
	sameNames(t, "traced result line metrics", keys(metrics), traced)
	if metrics["ops_per_s"] != (mv{5, "1/s"}) {
		t.Errorf("ops_per_s %+v", metrics["ops_per_s"])
	}
}

// TestHostTimeReadsBestOverReps: host-time metrics take the best value over
// the reps (per call for latencies), peak RSS the greatest, counts the median.
func TestHostTimeReadsBestOverReps(t *testing.T) {
	mk := func(wall, alloc float64, lat ...float64) *childRun {
		c := &childRun{Loops: 1, WallS: wall, CPUS: wall / 2, AllocMB: alloc, RSSMB: 100 + alloc}
		c.repResult = repResult{Ops: 6, LatMS: lat, Attempted: len(lat)}
		return c
	}
	reps := []*childRun{mk(2, 10, 10, 30), mk(1, 30, 20, 20), mk(3, 20, 15, 25)}
	m := endToEndMetrics(workloadByName("p2p-flood"), reps, []float64{5, 4, 6})
	for name, want := range map[string]float64{
		"setup_s": 4, "wall_s": 1, "cpu_s": 0.5, "ops_per_s": 6, "op_p50_ms": 15, "alloc_mb": 20, "peak_rss_mb": 130, "pass_ratio": 1,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := len(m["wall_s"].Samples); got != 3 {
		t.Errorf("wall_s keeps %d samples, want every rep's", got)
	}
}
