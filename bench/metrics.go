package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The registry below is the single description of what the benchmark
// measures. BENCHMARK.json at the repository root is generated from it
// (`bench -manifest`), the README tables restate it, and the tests fail if
// the harness emits a name that is not here or leaves one unproduced.

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// OpUnit names the unit of work ops_per_s counts.
	OpUnit string
	// LatOp names the timed call op_p50_ms/op_p95_ms sample.
	LatOp string
	// TailPct is the percentile op_p95_ms reports on this workload: p95 or
	// p90 where a rep makes enough timed calls for the heaviest few to sit
	// beyond it (77, 24, 23), p50 where it makes one or three. It is fixed
	// per workload so that two runs always compare the same percentile.
	TailPct int
	// Variants are the ablation-ladder rungs run in the attribution pass,
	// each one layer short of the full workload ("" is the full workload).
	Variants []string
}

var workloads = []workloadDef{
	{
		Name:     "p2p-flood",
		Why:      "small-messages under the full tool: ~90% of CPU is the sim/mpi/probe/mdl handler chain, tool planes under 5%",
		OpUnit:   "simulated message",
		LatOp:    "judged run",
		TailPct:  50,
		Variants: []string{"bare", "idle", "nopc"},
	},
	{
		Name:     "suite-sweep",
		Why:      "rest of the suite x 3 MPI personalities recorded into a store: daemon sampling, Consultant search and the archive write side dominate",
		OpUnit:   "judged run",
		LatOp:    "judged run",
		TailPct:  90,
		Variants: []string{"norecord"},
	},
	{
		Name:     "traced-tcp",
		Why:      "traced sessions over loopback TCP with Perfetto export: the only workload where trace and the live wire channels work",
		OpUnit:   "span exported",
		LatOp:    "traced session",
		TailPct:  50,
		Variants: []string{"inproc", "inproc-untraced"},
	},
	{
		Name:    "replay-whatif",
		Why:     "what-if replays of recorded archives: archive read side plus datasource and Consultant with sim/mpi/probe idle",
		OpUnit:  "what-if replay",
		LatOp:   "what-if replay",
		TailPct: 90,
	},
	{
		Name:    "store-cycle",
		Why:     "store add/show/diff/trend/push/pull/gc over recorded archives: analytics and sync planes with no simulator at all",
		OpUnit:  "store verb call",
		LatOp:   "store verb call",
		TailPct: 95,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// metricDef is one metric of the benchmark.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (end-to-end only).
	Bound float64
	// HostTime marks the end-to-end metrics that are host time. The driver
	// holds every metric BENCHMARK.json lists under end_to_end to its bound
	// run against run, and on the shared sandbox host time cannot be held to
	// any bound the contract allows (see below), so the manifest lists these
	// with the unbounded metrics and a driver run prints them with
	// --trace 1. Result files and -compare treat them like the rest.
	HostTime bool
	// Source says how a per-layer metric is gathered: span, count,
	// ablation, share, rt, micro or harness (per-layer only).
	Source string
	// Moves predicts which end-to-end metric the layer metric should move
	// and on which workload (per-layer only); see moves below.
	Moves string
	// Def is the definition printed in the README tables.
	Def string
}

// End-to-end metrics. Every workload reports every one of them. The counts
// repeat to four digits whatever the seed and keep the issue's tight bounds.
// Host time does not repeat: the sandbox's speed wanders by a third over
// tens of minutes, CPU seconds included (README "Noise": back-to-back reps
// of one binary drift between 1.65 s and 2.4 s, and no calibration kernel
// tracks the drift), so two ten-run sets of one commit spread 15-35% however
// long a run measures and whichever statistic it reports. The host-time
// metrics therefore carry HostTime: they are measured and compared like the
// others (best value over a run's reps, report.go; bound 25%), but a claim
// about them needs alternating parent/change pairs, not the driver's
// one-sided bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "fastest of five builds of the fixture archives (3 replay + 12 store recordings), one before the measured reps and four after, over the run's host factor"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, HostTime: true,
		Def: "child wall time per rep, process start to exit; least over the run's reps"},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, HostTime: true,
		Def: "child user+system CPU per rep (rusage), least over the run's reps; separates faster from used-the-second-core"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, HostTime: true,
		Def: "the workload's unit-of-work count over wall_s, per rep; greatest over the run's reps"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, HostTime: true,
		Def: "median latency over the rep's timed calls, each call at its fastest occurrence across the run's reps"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, HostTime: true,
		Def: "tail latency over the same calls at the workload's fixed tail percentile (p95 store-cycle, p90 suite-sweep and replay-whatif, p50 where a rep holds too few calls)"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02,
		Def: "MemStats.TotalAlloc at child exit; median over reps"},
	{Name: "mallocs_k", Unit: "k", Better: "lower", Bound: 0.02,
		Def: "MemStats.Mallocs at child exit, thousands of objects; median over reps"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Def: "child resident-set high-water mark (VmHWM at exit); greatest over the run's reps"},
	{Name: "artifact_bytes", Unit: "B", Better: "lower", Bound: 0.005,
		Def: "bytes of what the rep leaves for the user: stored run files, Perfetto JSON, store plus pushed bytes, rendered reports"},
	{Name: "pass_ratio", Unit: "ratio", Better: "higher", Bound: 0.001,
		Def: "timed calls whose correctness checks all passed over calls attempted (the issue's fail_ratio, stated so it is never 0)"},
}

// The interaction predictions of the issue, one per group of layer metrics.
const (
	movesHot     = "wall_s, ops_per_s, mallocs_k, alloc_mb on p2p-flood (~90% of its CPU); a few percent on suite-sweep; no change on replay-whatif and store-cycle"
	movesTool    = "wall_s, op_p50_ms on suite-sweep; under 5% on p2p-flood"
	movesAnalyze = "wall_s, op_p50_ms on suite-sweep; op_p50_ms, op_p95_ms on replay-whatif; under 5% on p2p-flood"
	movesWrite   = "wall_s, artifact_bytes on suite-sweep; op_p50_ms on store-cycle (add, push); a write gain that costs reads shows as replay-whatif worse"
	movesRead    = "op_p50_ms on replay-whatif (load is 4-20 ms beside 18-65 ms per replay) and store-cycle"
	movesAnalyt  = "op_p50_ms, op_p95_ms, wall_s on store-cycle only"
	movesWire    = "op_p95_ms, wall_s on store-cycle (push, pull); slightly traced-tcp; no change on the other three"
	movesTrace   = "wall_s, peak_rss_mb, artifact_bytes, ops_per_s on traced-tcp; exactly zero elsewhere (tracing cold)"
	movesRuntime = "cpu_s more than wall_s on every workload (the second core absorbs GC)"
	movesNone    = "none: describes the measurement, not the program"
)

// Per-layer metrics. Layer names are the internal/ package names. All are
// gathered by bench/ itself, from outside the layers, in the attribution
// pass (--trace 1); a metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(source, moves, unit, better string, names ...string) {
		for _, n := range names {
			name, def, _ := strings.Cut(n, ": ")
			out = append(out, metricDef{Name: name, Unit: unit, Better: better, Source: source, Moves: moves, Def: def})
		}
	}

	// 1. Spans and counts around the harness's own calls into each layer.
	add("span", movesTool, "ms", "lower",
		"core.new_session_ms: core.NewSession per traced session",
		"core.launch_ms: Session.Register+Launch per traced session",
		"core.close_ms: Session.Close per traced session")
	add("span", movesTool, "s", "lower",
		"core.run_s: Session.Run per traced session (everything below the tool runs inside it)")
	add("span", movesAnalyze, "ms", "lower",
		"consultant.start_ms: Consultant.Start per traced session",
		"consultant.render_ms: Consultant.Render per call",
		"consultant.replay_ms: pperfmark.ReplayWith per what-if replay")
	add("count", movesAnalyze, "count", "lower",
		"consultant.tested: hypothesis nodes tested per rep (Consultant.Stats)",
		"consultant.true: nodes that tested true per rep",
		"consultant.pruned: nodes pruned per rep")
	add("span", movesAnalyze, "ms", "lower",
		"pperfmark.judge_ms: pperfmark.Judge per call")
	add("count", movesHot, "count", "lower",
		"probe.execs: probe-handler executions per rep (Result.ProbeExecs)",
		"probe.execs_per_msg: probe executions per simulated message (p2p-flood)")
	add("span", movesWrite, "ms", "lower",
		"perfdb.commit_ms: Store.Commit per recorded run")
	add("count", movesWrite, "count", "lower",
		"perfdb.rec_events: archive events recorded per rep",
		"perfdb.rec_peak_buffered: most events any streaming recorder buffered")
	add("count", movesWrite, "B", "lower",
		"perfdb.bytes_per_event: stored run bytes over recorded events")
	add("span", movesRead, "ms", "lower",
		"perfdb.load_ms: perfdb.LoadAny per archive",
		"perfdb.open_run_ms: Store.OpenRun per run")
	add("span", movesRead, "MB/s", "higher",
		"perfdb.load_mb_s: archive bytes over LoadAny time")
	add("span", movesWrite, "ms", "lower",
		"perfdb.add_ms: Store.AddArchive per archive")
	add("span", movesAnalyt, "ms", "lower",
		"perfdb.compare_ms: perfdb.Compare+Render per pair",
		"perfdb.trend_ms: perfdb.Trend+Render per program",
		"perfdb.json_ms: SummaryJSON/RenderJSON per document",
		"perfdb.remove_ms: Store.Remove per run",
		"perfdb.gc_ms: Store.GC per sweep")
	add("span", movesWire, "ms", "lower",
		"perfdb.push_ms: perfdb.Push per run (fresh content)",
		"perfdb.pull_ms: perfdb.Pull of the whole served store")
	add("span", movesWire, "MB/s", "higher",
		"perfdb.sync_mb_s: bytes pushed and pulled over push+pull time")
	add("count", movesWire, "count", "lower",
		"perfdb.sync_frames: frames the sync server handled per rep",
		"perfdb.sync_dup_frames: of those, duplicates",
		"wire.ctl_frames: acknowledged ctl-channel frames per rep (Session.WireStats)",
		"wire.bulk_frames: acknowledged bulk-channel frames per rep",
		"wire.retries: frame retries per rep, ctl+bulk",
		"wire.reconnects: redials per rep, ctl+bulk",
		"wire.failures: frames given up on per rep, ctl+bulk")
	add("count", movesTrace, "count", "lower",
		"trace.spans: spans in the merged timelines per rep",
		"trace.lost: spans lost to ring, outbox or delivery per rep (must be 0)")
	add("span", movesTrace, "ms", "lower",
		"trace.merge_ms: Timeline.Spans (merge+sort) per traced session",
		"trace.export_ms: trace.WriteChrome per traced session",
		"trace.critpath_ms: trace.Analyze+Render per traced session")
	add("span", movesTrace, "MB/s", "higher",
		"trace.export_mb_s: Perfetto JSON bytes over WriteChrome time")

	// 2. Ablation ladder: the same workload with one layer fewer, one child
	// per rung; the malloc deltas are exact, the CPU deltas are not.
	add("ablation", movesHot, "s", "lower",
		"mpi.bare_cpu_s: p2p-flood with sim+mpi+program only, no tool: CPU",
		"daemon.idle_delta_cpu_s: core.Session attached, nothing enabled, minus bare",
		"mdl.metrics_delta_cpu_s: verification metric enabled (DisablePC) minus idle")
	add("ablation", movesHot, "k", "lower",
		"mpi.bare_mallocs_k: p2p-flood with sim+mpi+program only: mallocs",
		"daemon.idle_delta_mallocs_k: idle session minus bare",
		"mdl.metrics_delta_mallocs_k: verification metric minus idle")
	add("ablation", movesAnalyze, "s", "lower",
		"consultant.search_delta_cpu_s: full p2p-flood minus DisablePC")
	add("ablation", movesAnalyze, "k", "lower",
		"consultant.search_delta_mallocs_k: full p2p-flood minus DisablePC")
	add("ablation", movesWrite, "s", "lower",
		"perfdb.record_delta_cpu_s: suite-sweep recorded minus unrecorded")
	add("ablation", movesWrite, "k", "lower",
		"perfdb.record_delta_mallocs_k: suite-sweep recorded minus unrecorded")
	add("ablation", movesTrace, "s", "lower",
		"trace.armed_delta_cpu_s: traced minus untraced, both in-process")
	add("ablation", movesTrace, "k", "lower",
		"trace.armed_delta_mallocs_k: traced minus untraced, both in-process")
	add("ablation", movesTrace, "MB", "lower",
		"trace.armed_delta_rss_mb: traced minus untraced peak RSS, both in-process")
	add("ablation", movesWire, "s", "lower",
		"wire.tcp_delta_cpu_s: traced over TCP minus traced in-process")

	// 3. CPU-profile shares of the attribution rep, by the innermost
	// pperf/internal/<pkg> frame on each sample's stack.
	shareMoves := map[string]string{
		"sim": movesHot, "mpi": movesHot, "probe": movesHot, "mdl": movesHot, "metric": movesHot,
		"resource": movesTool, "cluster": movesHot,
		"daemon": movesTool, "frontend": movesTool, "datasource": movesAnalyze, "consultant": movesAnalyze,
		"session": movesRead, "perfdb": movesWrite, "wire": movesWire, "trace": movesTrace,
		"stats": movesAnalyt, "pperfmark": movesHot, "other": movesRuntime,
	}
	for _, pkg := range shareLayers {
		add("share", shareMoves[pkg], "ratio", "lower",
			"share."+pkg+": share of CPU samples whose innermost pperf frame is internal/"+pkg)
	}
	add("rt", movesRuntime, "ratio", "lower",
		"rt.gc: share of CPU samples in the garbage collector (overlaps share.*)",
		"rt.alloc: share in mallocgc and friends outside GC assist",
		"rt.sched: share in futex/findRunnable/park/chan (coroutine handoff)",
		"rt.gob: share under encoding/gob",
		"rt.fmt: share under fmt and strconv",
		"rt.syscall: share in syscalls and the netpoller")

	// 4. Layer micro drivers: closed loops in bench/micro.go.
	add("micro", movesHot, "ns", "lower",
		"sim.switch_ns: one Proc.Sleep coroutine round trip",
		"sim.callback_ns: one Engine.At event callback",
		"mpi.eager_ns: one 8-byte eager Send/Recv pair, bare world",
		"mpi.rendezvous_ns: one 100 kB rendezvous Send/Recv pair",
		"mpi.barrier_ns: one 6-rank Barrier",
		"mpi.put_fence_ns: one Fence+Put+Fence epoch, 2 ranks",
		"probe.fire_ns: Enter+Leave of a function with one entry probe",
		"probe.insert_remove_ns: one Insert+Remove pair",
		"mdl.handler_ns: Enter+Leave with a msgs_sent instance attached",
		"metric.hist_add_ns: Histogram.Add including folds")
	add("micro", movesHot, "count", "lower",
		"sim.switch_allocs: mallocs per coroutine round trip",
		"mpi.eager_allocs: mallocs per eager Send/Recv pair",
		"probe.fire_allocs: mallocs per probed Enter+Leave")
	add("micro", movesTool, "ms", "lower",
		"mdl.compile_ms: compile the standard MDL library")
	add("micro", movesTool, "us", "lower",
		"mdl.instantiate_us: instantiate+remove msgs_sent on one process",
		"daemon.sample_us: session wall per (tick x rank x metric), compute-only ranks, 4 metrics")
	add("micro", movesAnalyze, "ns", "lower",
		"datasource.apply_ns: View.ApplySamples per sample",
		"datasource.series_lookup_ns: View.Series lookup")
	add("micro", movesWire, "us", "lower",
		"wire.exchange_us: Conn.Exchange round trip, small frame, loopback")
	add("micro", movesWire, "MB/s", "higher",
		"wire.exchange_mb_s: Conn.Exchange throughput, 64 KiB frames")
	add("micro", movesWrite, "MB/s", "higher",
		"perfdb.pack_mb_s: WriteArchive of a samples-only archive (the delta packer)",
		"perfdb.chunk_write_mb_s: WriteArchive of a mixed-event archive")
	add("micro", movesRead, "MB/s", "higher",
		"perfdb.chunk_read_mb_s: ReadArchive of the mixed-event archive")
	add("micro", movesTrace, "ns", "lower",
		"trace.record_ns: Recorder.Record per span",
		"trace.ingest_ns: Timeline.Ingest per span (512-span shards)")
	add("micro", movesAnalyt, "us", "lower",
		"stats.paired_us: PairedDiff over 200 pairs",
		"stats.trend_us: LinearTrend over 30 points")

	add("harness", movesNone, "ratio", "lower",
		"harness.trace_overhead_ratio: attribution-rep wall over the end-to-end median wall",
		"harness.host_factor: the run's fastest calibration-kernel time over the kernel's time on the quiet sandbox; setup_s is divided by it")
	return out
}

// shareLayers are the packages CPU samples are bucketed into; "other" takes
// samples with no frame from a listed package (background GC, scheduler,
// the harness itself).
var shareLayers = []string{
	"sim", "mpi", "probe", "mdl", "metric", "resource", "cluster", "daemon", "frontend",
	"datasource", "consultant", "session", "perfdb", "wire", "trace", "stats", "pperfmark", "other",
}

func metricByName(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds; the driver passes it back as --seconds). Eight seconds hold
// 4-11 reps: the bounded metrics are counts, which repeat from the first rep,
// and a run of set-up, warm-up and window stays near 20 s, so the 114 runs
// the driver makes take 40 of its 57 minutes and a slow hour still fits.
const runSeconds = 8

// manifest renders BENCHMARK.json from the registry.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		if m.HostTime {
			doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
		} else {
			doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
		}
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render manifest: %w", err)
	}
	return append(b, '\n'), nil
}
