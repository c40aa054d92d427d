package pperfmark

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/mpi"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// stampRecording stamps the run record of a run laid out on nodes nodes into
// the recorder's header, one Meta pair per fact: everything Replay needs to
// re-drive the Performance Consultant against the recorded event stream,
// the live-only facts (fault log, probe count) a replay cannot recompute,
// and the text of a run the personality cannot run at all (spawn on MPICH,
// passive target outside Reference), so its skip verdict replays too.
// Integers are decimal, durations and the run time nanoseconds, thresholds
// the shortest text that parses back to them. A zero fact is left out, but
// for the pairs the store index lists (program, impl, seed, procs, nodes,
// faults, and runtime once final), since an absent key reads as zero. At
// launch (final false) it stamps what is known then, which lands in the
// header chunk so a crashed run's archive replays, and at the end all of it.
// A no-op when the run is not recording.
func stampRecording(opt RunOptions, res *Result, pc consultant.Config, nodes int, final bool) {
	if opt.Record == nil {
		return
	}
	set := opt.Record.SetMeta
	set("program", res.Program)
	set("impl", res.Impl.String())
	set("seed", strconv.FormatUint(opt.Seed, 10))
	set("procs", strconv.Itoa(res.Params.Procs))
	set("nodes", strconv.Itoa(nodes))
	if opt.Faults != nil {
		set("faults", opt.Faults.String())
	}
	if final {
		set("runtime", strconv.FormatInt(int64(res.RunTime), 10))
	}
	p, bit := &res.Params, map[bool]int64{true: 1}
	for _, x := range [...]struct {
		k string
		v int64
	}{
		{"iterations", int64(p.Iterations)}, {"message-size", int64(p.MessageSize)}, {"messages", int64(p.Messages)},
		{"ttw", int64(p.TimeToWaste)}, {"waste-unit", int64(p.WasteUnit)}, {"windows", int64(p.Windows)},
		{"children", int64(p.Children)}, {"probe-execs", res.ProbeExecs}, {"traced", bit[opt.Trace != nil]},
		{"pc-off", bit[opt.DisablePC]}, {"pc-eval", int64(pc.EvalInterval)}, {"pc-prune", int64(pc.PruneEvals)},
	} {
		if x.v != 0 {
			set(x.k, strconv.FormatInt(x.v, 10))
		}
	}
	for _, x := range [...]struct {
		k string
		v float64
	}{{"pc-sync", pc.SyncThreshold}, {"pc-io", pc.IOThreshold}, {"pc-cpu", pc.CPUThreshold}} {
		if x.v != 0 {
			set(x.k, strconv.FormatFloat(x.v, 'g', -1, 64))
		}
	}
	if len(res.FaultLog) > 0 {
		set("fault-log", strings.Join(res.FaultLog, "\n"))
	}
	if res.Unsupported != nil {
		set("unsupported", res.Unsupported.Error())
	}
}

// decodeRun decodes the run record in an archive header's Meta back into the
// run's result, options (its personality, merged params, seed, DisablePC
// and, for a traced run, a non-nil Trace) and Consultant configuration. A
// value that does not parse is an error, and so is a record no live run
// writes: an unknown personality, a negative parameter, prune or probe
// count, an evaluation interval that is not positive, a negative run time or
// a threshold outside (0, 1].
func decodeRun(meta map[string]string) (*Result, RunOptions, consultant.Config, error) {
	var bad error
	fail := func(format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf(format, args...)
		}
	}
	num := func(k string) int64 {
		n, err := strconv.ParseInt(cmp.Or(meta[k], "0"), 10, 64)
		if err != nil {
			fail("%s %q", k, meta[k])
		}
		return n
	}
	frac := func(k string) float64 {
		f, err := strconv.ParseFloat(cmp.Or(meta[k], "0"), 64)
		if err != nil {
			fail("%s %q", k, meta[k])
		}
		return f
	}
	impl, err := mpi.ParseImpl(meta["impl"])
	if err != nil {
		fail("personality %q", meta["impl"])
	}
	seed, err := strconv.ParseUint(cmp.Or(meta["seed"], "0"), 10, 64)
	if err != nil {
		fail("seed %q", meta["seed"])
	}
	p := Params{Iterations: int(num("iterations")), MessageSize: int(num("message-size")), Messages: int(num("messages")),
		TimeToWaste: int(num("ttw")), Procs: int(num("procs")), WasteUnit: sim.Duration(num("waste-unit")),
		Windows: int(num("windows")), Children: int(num("children"))}
	res := &Result{Program: meta["program"], Impl: impl, Params: p, RunTime: sim.Time(num("runtime")), ProbeExecs: num("probe-execs")}
	if log := meta["fault-log"]; log != "" {
		res.FaultLog = strings.Split(log, "\n")
	}
	if u := meta["unsupported"]; u != "" {
		res.Unsupported = errors.New(u)
	}
	opt := RunOptions{Impl: impl, Params: p, Seed: seed, DisablePC: num("pc-off") != 0}
	if num("traced") != 0 {
		opt.Trace = &trace.Config{}
	}
	pc := consultant.Config{SyncThreshold: frac("pc-sync"), IOThreshold: frac("pc-io"), CPUThreshold: frac("pc-cpu"),
		EvalInterval: sim.Duration(num("pc-eval")), PruneEvals: int(num("pc-prune"))}
	switch {
	case min(p.Iterations, p.MessageSize, p.Messages, p.TimeToWaste, p.Procs, p.Windows, p.Children, pc.PruneEvals) < 0 ||
		p.WasteUnit < 0 || res.ProbeExecs < 0:
		fail("negative parameter, prune or probe count in %+v, %d, %d", p, pc.PruneEvals, res.ProbeExecs)
	case pc.EvalInterval <= 0 || res.RunTime < 0:
		fail("evaluation interval %v, run time %v", pc.EvalInterval, res.RunTime)
	case core.CheckThreshold(pc.SyncThreshold) != nil || core.CheckThreshold(pc.IOThreshold) != nil || core.CheckThreshold(pc.CPUThreshold) != nil:
		fail("thresholds %v, %v, %v", pc.SyncThreshold, pc.IOThreshold, pc.CPUThreshold)
	}
	if bad != nil {
		return res, opt, pc, fmt.Errorf("pperfmark: corrupt run description: %w", bad)
	}
	return res, opt, pc, nil
}

// ReplayOptions override pieces of the recorded analysis configuration
// for "what-if" replay: the same recorded event stream is re-analyzed
// under altered Performance Consultant thresholds, so a threshold change
// can be evaluated without re-running (or even having) the original
// cluster. Zero values keep the recorded configuration; any other value
// must lie in (0, 1], the range core.CheckThreshold holds -pcl and the
// CLI's -what-if-* flags to.
type ReplayOptions struct {
	// SyncThreshold, IOThreshold, CPUThreshold override the recorded
	// hypothesis-test fractions when non-zero.
	SyncThreshold float64
	IOThreshold   float64
	CPUThreshold  float64
}

// override returns the recorded config with the non-zero overrides
// applied, or the range error of the first one outside (0, 1].
func (o ReplayOptions) override(cfg consultant.Config) (consultant.Config, error) {
	for _, th := range []struct {
		name string
		v    float64
		dst  *float64
	}{
		{"sync", o.SyncThreshold, &cfg.SyncThreshold},
		{"io", o.IOThreshold, &cfg.IOThreshold},
		{"cpu", o.CPUThreshold, &cfg.CPUThreshold},
	} {
		if th.v == 0 {
			continue
		}
		if err := core.CheckThreshold(th.v); err != nil {
			return cfg, fmt.Errorf("pperfmark: what-if %s threshold %v: %w", th.name, th.v, err)
		}
		*th.dst = th.v
	}
	return cfg, nil
}

// Replay re-runs the analysis plane of a recorded session offline with
// the recorded configuration: it rebuilds the DataSource view from the
// archive's event stream, re-drives the Performance Consultant on a fresh
// virtual clock, and returns a Result equivalent to the live one — same
// findings, same series, same hierarchy, same timeline — without
// simulating the cluster, the MPI implementation, or the daemons.
func Replay(a *session.Archive) (*Result, error) {
	return ReplayWith(a, ReplayOptions{})
}

// ReplayWith is Replay with what-if overrides applied over the recorded
// Consultant configuration (see ReplayOptions).
func ReplayWith(a *session.Archive, o ReplayOptions) (*Result, error) {
	if _, ok := a.Header.Meta["program"]; !ok {
		return nil, fmt.Errorf("pperfmark: archive carries no run description (not recorded by this harness?)")
	}
	res, opt, pc, err := decodeRun(a.Header.Meta)
	if err != nil {
		return nil, err
	}
	// The Consultant evaluates once per EvalInterval of run time, and the
	// live run stamped one barrier per evaluation. A truncated archive's
	// clock stops at the last complete barrier's evaluation instant, k
	// intervals in for k barriers (NewReplaySource drops the rest), so no
	// evaluation reads state the live run never had; a complete one that
	// promises more evaluations than it holds barriers was not written by a
	// live run, and replaying it could evaluate without end.
	_, barriers := a.Replayable()
	if a.Truncated {
		res.RunTime = sim.Time(barriers) * sim.Time(pc.EvalInterval)
	}
	if evals := res.RunTime / sim.Time(pc.EvalInterval); !opt.DisablePC && evals > sim.Time(barriers) {
		return nil, fmt.Errorf("pperfmark: corrupt run description: run time %v promises %d evaluations, archive holds %d barriers", res.RunTime, evals, barriers)
	}
	if pc, err = o.override(pc); err != nil {
		return nil, err
	}
	if res.Unsupported != nil {
		return res, nil
	}
	entry := Get(res.Program)
	if entry == nil {
		return nil, fmt.Errorf("pperfmark: archive records unknown program %q", res.Program)
	}

	rs := session.NewReplaySource(a)
	if opt.Trace != nil {
		// A traced live run has a timeline even if no shards arrived.
		rs.EnableTrace()
	}
	res.Source = rs

	if err := enableVerification(rs, entry, res); err != nil {
		return nil, err
	}

	// A fresh engine paces the Consultant exactly as the live one did:
	// evaluations fire on the same virtual-time grid, and each calls
	// Sync, which advances the replay to the matching recorded barrier.
	eng := sim.NewEngine(opt.Seed)
	if !opt.DisablePC {
		res.PC = consultant.New(rs, eng, pc)
		if err := res.PC.Start(); err != nil {
			return nil, err
		}
	}
	// The replay clock: a single proc sleeping for the recorded runtime
	// keeps the engine alive through the last live evaluation instant
	// (scheduled callbacks at a time T fire before a proc resuming at T).
	eng.StartProc("replay-clock", func(p *sim.Proc) {
		p.Sleep(sim.Duration(res.RunTime))
	})
	if err := eng.Run(); err != nil {
		return nil, err
	}
	// Apply the tail recorded after the last barrier (end-of-run sample
	// flushes, trace flushes, undelivered-span accounting).
	rs.Drain()

	res.Coverage = rs.Coverage()
	res.Timeline = rs.Timeline()
	return res, nil
}
