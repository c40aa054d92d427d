package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig says what one benchmark run measures.
type runConfig struct {
	Root      string   // repository (checkout) root
	Commit    string   // names the result file; empty for driver runs
	Workloads []string // in registry order
	Seed      uint64
	// Reps is the number of measured repetitions per workload; when
	// Seconds is set the run instead keeps starting rounds until that
	// much time has been measured.
	Reps    int
	Seconds float64
	// Attribution adds the attribution pass (per-layer metrics).
	Attribution bool
	// MicroMin is how long each micro driver's timed call lasts.
	MicroMin time.Duration
	Log      func(format string, args ...any)
}

// setupReps is how many times a run builds the fixtures; setup_s is the
// fastest build over the run's host factor, the fastest of the calibration
// runs made beside the builds over calibNominalS (calib.go). The first build
// comes before the measured reps, which use it, and the others after them,
// so that the builds sample the host over the whole run and not over its
// first seconds only.
const setupReps = 5

// harness is the state of one benchmark run: the temp tree, the fixtures
// and the child processes it starts.
type harness struct {
	cfg    runConfig
	ctx    context.Context
	exe    string
	tmp    string // removed when the run ends
	fxDir  string
	nChild int
	setups []float64 // seconds per fixture build
	calibs []float64 // seconds per calibration run, one beside each build
	spans  []span    // attribution spans of every workload, for spans.json
}

// outDir is where a run keeps its temp tree and result files; it is
// git-ignored.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// benchmark runs the configured workloads and returns the report.
func benchmark(ctx context.Context, cfg runConfig) (*report, error) {
	t0 := time.Now()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir(cfg.Root), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir(cfg.Root), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	h := &harness{cfg: cfg, ctx: ctx, exe: exe, tmp: tmp}

	if err := h.timedSetup(); err != nil {
		return nil, err
	}
	rep := &report{
		Commit: cfg.Commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seed: cfg.Seed, Seconds: cfg.Seconds,
		Workloads: map[string]*workloadReport{},
	}
	if cfg.Seconds == 0 {
		rep.Reps = cfg.Reps
	}

	// One warm-up child per workload, discarded: it pages the binary and
	// the fixtures in, and its digest is the one every rep must reproduce.
	reference := map[string]string{}
	for _, name := range cfg.Workloads {
		c, err := h.child(childArgs{Workload: name})
		if err != nil {
			return nil, err
		}
		reference[name] = c.Digest
	}

	// Measured reps, interleaved round-robin across workloads so a noisy
	// minute hits all of them alike.
	reps := map[string][]*childRun{}
	measureStart := time.Now()
	for round := 0; ; round++ {
		if cfg.Seconds > 0 {
			if time.Since(measureStart).Seconds() >= cfg.Seconds {
				break
			}
		} else if round >= cfg.Reps {
			break
		}
		for _, name := range cfg.Workloads {
			c, err := h.child(childArgs{Workload: name})
			if err != nil {
				return nil, err
			}
			if c.Digest != reference[name] {
				c.Attempted++
				c.Failed++
				c.Failures = append(c.Failures, fmt.Sprintf("rep %d: result digest %.12s differs from the warm-up's %.12s", round, c.Digest, reference[name]))
			}
			reps[name] = append(reps[name], c)
		}
		cfg.Log("round %d done (%.1f s measured)", round+1, time.Since(measureStart).Seconds())
	}

	for len(h.setups) < setupReps {
		if err := h.timedSetup(); err != nil {
			return nil, err
		}
	}

	rep.HostFactor = best(h.calibs, "lower") / calibNominalS
	setups := make([]float64, len(h.setups))
	for i, s := range h.setups {
		setups[i] = s / rep.HostFactor
	}

	for _, name := range cfg.Workloads {
		w := workloadByName(name)
		wr := &workloadReport{
			Reps: len(reps[name]), ResultDigest: reference[name], OpUnit: w.OpUnit, LatOp: w.LatOp, TailPct: w.TailPct,
			EndToEnd: endToEndMetrics(w, reps[name], setups),
		}
		wr.LatSamples = len(quietLatencies(reps[name]))
		for _, c := range reps[name] {
			wr.RepWallS = append(wr.RepWallS, c.WallS)
			wr.Attempted += c.Attempted
			wr.Failed += c.Failed
			wr.Failures = append(wr.Failures, c.Failures...)
		}
		rep.Workloads[name] = wr
	}

	if cfg.Attribution {
		cfg.Log("attribution pass: micro drivers")
		micro, err := runMicro(cfg.MicroMin)
		if err != nil {
			return nil, err
		}
		for _, name := range cfg.Workloads {
			cfg.Log("attribution pass: %s", name)
			if err := h.attribute(workloadByName(name), rep.Workloads[name], micro, rep.HostFactor); err != nil {
				return nil, err
			}
		}
		if err := writeJSON(filepath.Join(outDir(cfg.Root), "spans.json"), h.spans); err != nil {
			return nil, err
		}
	}
	rep.TotalS = time.Since(t0).Seconds()
	return rep, nil
}

// timedSetup runs the calibration kernel and builds the fixtures once more,
// timing both. The run's children read the first build; the later ones are
// only timed.
func (h *harness) timedSetup() error {
	c, err := calibrate()
	if err != nil {
		return err
	}
	h.calibs = append(h.calibs, c.Seconds())
	dir := filepath.Join(h.tmp, fmt.Sprintf("fixtures%d", len(h.setups)))
	t0 := time.Now()
	if _, err := buildFixtures(dir, h.cfg.Seed, &fullScale); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	h.setups = append(h.setups, time.Since(t0).Seconds())
	h.cfg.Log("set-up %d/%d: %.2f s (calibration %.3f s)", len(h.setups), setupReps, h.setups[len(h.setups)-1], c.Seconds())
	if h.fxDir == "" {
		h.fxDir = dir
		return nil
	}
	return os.RemoveAll(dir)
}

// childArgs selects what a child runs.
type childArgs struct {
	Workload string
	Variant  string
	Loops    int    // 0 means 1
	Spans    bool   // record spans
	Profile  string // CPU profile path
}

// child runs one child process to completion and returns its result with
// wall time and CPU time taken from the process itself. The
// child is killed if the run's context is cancelled (parent interrupted).
func (h *harness) child(a childArgs) (*childRun, error) {
	h.nChild++
	tmp := filepath.Join(h.tmp, fmt.Sprintf("child%d", h.nChild))
	if a.Loops == 0 {
		a.Loops = 1
	}
	args := []string{"-child", "-workload", a.Workload, "-variant", a.Variant,
		"-seed", fmt.Sprint(h.cfg.Seed), "-fixtures", h.fxDir, "-tmp", tmp, "-loops", fmt.Sprint(a.Loops)}
	if a.Spans {
		args = append(args, "-spans")
	}
	if a.Profile != "" {
		args = append(args, "-cpuprofile", a.Profile)
	}
	cmd := exec.CommandContext(h.ctx, h.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	os.RemoveAll(tmp)
	what := a.Workload
	if a.Variant != "" {
		what += "/" + a.Variant
	}
	if err != nil {
		if h.ctx.Err() != nil {
			return nil, fmt.Errorf("interrupted while running %s", what)
		}
		return nil, fmt.Errorf("child %s: %w", what, err)
	}
	var c childRun
	if err := json.Unmarshal(stdout.Bytes(), &c); err != nil {
		return nil, fmt.Errorf("child %s: unreadable result: %w", what, err)
	}
	c.WallS = wall.Seconds()
	ps := cmd.ProcessState
	c.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	return &c, nil
}

// attribute runs the attribution pass of one workload and fills
// wr.PerLayer: a spanned, CPU-profiled child (looped to collect a few
// hundred profile samples), one child per ablation variant, and the micro
// driver results shared by every workload. Metrics that do not apply to the
// workload read 0.
func (h *harness) attribute(w *workloadDef, wr *workloadReport, micro map[string]float64, hostFactor float64) error {
	vals := map[string]float64{}
	for k, v := range micro {
		vals[k] = v
	}
	fullWall := wr.EndToEnd["wall_s"].Value

	// Spanned + profiled child.
	loops := int(math.Ceil(3 / fullWall))
	if loops < 1 {
		loops = 1
	}
	if loops > 8 {
		loops = 8
	}
	prof := filepath.Join(h.tmp, w.Name+".prof")
	c, err := h.child(childArgs{Workload: w.Name, Loops: loops, Spans: true, Profile: prof})
	if err != nil {
		return err
	}
	wr.Attempted += c.Attempted
	wr.Failed += c.Failed
	wr.Failures = append(wr.Failures, c.Failures...)
	h.spans = append(h.spans, c.Spans...)
	vals["harness.trace_overhead_ratio"] = c.WallS / float64(loops) / fullWall
	vals["harness.host_factor"] = hostFactor
	spanMetrics(vals, c)
	samples, err := readProfile(prof)
	if err != nil {
		return err
	}
	for k, v := range profileShares(samples) {
		vals[k] = v
	}

	// Ablation ladder: one child per rung; the full rung is the median of
	// the end-to-end reps.
	rung := map[string]*childRun{"": {
		CPUS:     wr.EndToEnd["cpu_s"].Value,
		MallocsK: wr.EndToEnd["mallocs_k"].Value,
		RSSMB:    wr.EndToEnd["peak_rss_mb"].Value,
	}}
	for _, v := range w.Variants {
		if rung[v], err = h.child(childArgs{Workload: w.Name, Variant: v}); err != nil {
			return err
		}
	}
	for k, v := range ablationMetrics(w, rung) {
		vals[k] = v
	}

	wr.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		wr.PerLayer[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		delete(vals, d.Name)
	}
	for name := range vals {
		return fmt.Errorf("attribution of %s produced %s, which the registry does not list", w.Name, name)
	}
	return nil
}

// ablationMetrics differences the rungs of a workload's ablation ladder
// (keyed by variant, "" being the full workload) into layer metrics.
func ablationMetrics(w *workloadDef, rung map[string]*childRun) map[string]float64 {
	vals := map[string]float64{}
	delta := func(name, hi, lo string) {
		vals[name+"_cpu_s"] = rung[hi].CPUS - rung[lo].CPUS
		vals[name+"_mallocs_k"] = rung[hi].MallocsK - rung[lo].MallocsK
	}
	switch w.Name {
	case "p2p-flood":
		vals["mpi.bare_cpu_s"] = rung["bare"].CPUS
		vals["mpi.bare_mallocs_k"] = rung["bare"].MallocsK
		delta("daemon.idle_delta", "idle", "bare")
		delta("mdl.metrics_delta", "nopc", "idle")
		delta("consultant.search_delta", "", "nopc")
	case "suite-sweep":
		delta("perfdb.record_delta", "", "norecord")
	case "traced-tcp":
		delta("trace.armed_delta", "inproc", "inproc-untraced")
		vals["trace.armed_delta_rss_mb"] = rung["inproc"].RSSMB - rung["inproc-untraced"].RSSMB
		vals["wire.tcp_delta_cpu_s"] = rung[""].CPUS - rung["inproc"].CPUS
	}
	return vals
}

// spanMetrics turns the attribution child's spans and counters into layer
// metrics: the mean self time per call of every spanned layer call, the
// counters per rep, and the rates derived from both.
func spanMetrics(vals map[string]float64, c *childRun) {
	self := selfTimes(c.Spans)
	loops := float64(c.Loops)
	meanNS := func(span string) float64 {
		t := self[span]
		if t.Count == 0 {
			return 0
		}
		return float64(t.SelfNS) / float64(t.Count)
	}
	rate := func(bytes float64, spans ...string) float64 { // MB/s
		var ns int64
		for _, s := range spans {
			ns += self[s].SelfNS
		}
		if ns == 0 {
			return 0
		}
		return bytes / float64(ns) * 1e3
	}
	for _, d := range perLayer {
		switch d.Source {
		case "span":
			switch d.Unit {
			case "ms":
				vals[d.Name] = meanNS(strings.TrimSuffix(d.Name, "_ms")) / 1e6
			case "s":
				vals[d.Name] = meanNS(strings.TrimSuffix(d.Name, "_s")) / 1e9
			}
		case "count":
			if v, ok := c.Maxes[d.Name]; ok {
				vals[d.Name] = v
			} else {
				vals[d.Name] = c.Counts[d.Name] / loops
			}
		}
	}
	vals["perfdb.load_mb_s"] = rate(c.Counts["perfdb.load_bytes"], "perfdb.load")
	vals["perfdb.sync_mb_s"] = rate(c.Counts["perfdb.sync_bytes"], "perfdb.push", "perfdb.pull")
	vals["trace.export_mb_s"] = rate(c.Counts["trace.export_bytes"], "trace.export")
	if ev := c.Counts["perfdb.rec_events"]; ev > 0 {
		vals["perfdb.bytes_per_event"] = c.Counts["perfdb.rec_bytes"] / ev
	}
}

// commitOf names the commit a full run measures, for the result file's name.
// A checkout that is not a git repository reports "worktree".
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "worktree"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
