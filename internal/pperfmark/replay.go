package pperfmark

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/mpi"
	"pperf/internal/packed"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// packRun returns the run description a recording stores in the archive
// header's Extra payload, packed from the run's result, its options and its
// Consultant configuration: everything Replay needs to re-drive the
// Performance Consultant against the recorded event stream, plus the
// live-only facts (fault log, probe counts) a replay cannot recompute, and
// the text of a run the personality cannot run at all (spawn on MPICH,
// passive target outside Reference), so its skip verdict replays too. It is
// one record in internal/packed's dictionary form, the fault-log lines its
// records:
//
//	packed head: uvarint nFaultLog, the dictionary
//	uvarint Program's and Unsupported's dictionary indexes
//	zigzag Impl, Seed, the eight Params, DisablePC, EvalInterval,
//	       PruneEvals, traced, RunTime, ProbeExecs
//	uvarint Float64bits of the sync, io and cpu thresholds
//	one dictionary index per fault-log line
func packRun(res *Result, opt RunOptions, pc consultant.Config) []byte {
	var w packed.Writer
	w.Reset()
	unsup := ""
	if res.Unsupported != nil {
		unsup = res.Unsupported.Error()
	}
	prog, un := w.Intern(res.Program), w.Intern(unsup)
	for _, l := range res.FaultLog {
		w.Recs = append(w.Recs, [5]uint64{w.Intern(l)})
	}
	out := binary.AppendUvarint(binary.AppendUvarint(w.Head(nil, len(res.FaultLog)), prog), un)
	p, bit := &res.Params, map[bool]int64{true: 1}
	for _, x := range [runInts]int64{int64(res.Impl), int64(opt.Seed), int64(p.Iterations), int64(p.MessageSize),
		int64(p.Messages), int64(p.TimeToWaste), int64(p.Procs), int64(p.WasteUnit), int64(p.Windows), int64(p.Children),
		bit[opt.DisablePC], int64(pc.EvalInterval), int64(pc.PruneEvals), bit[opt.Trace != nil], int64(res.RunTime), res.ProbeExecs} {
		out = binary.AppendVarint(out, x)
	}
	for _, f := range [...]float64{pc.SyncThreshold, pc.IOThreshold, pc.CPUThreshold} {
		out = binary.AppendUvarint(out, math.Float64bits(f))
	}
	for _, r := range w.Recs {
		out = binary.AppendUvarint(out, r[0])
	}
	return out
}

const runInts = 16

// unpackRun decodes a run description back into the run's result, options
// (its personality, merged params, seed, DisablePC and, for a traced run, a
// non-nil Trace) and Consultant configuration. Corrupt input is an error,
// never a panic, and so is a description no live run writes: a personality
// outside LAM…Reference, a negative parameter or prune count, an evaluation
// interval that is not positive, a negative run time or a threshold outside
// (0, 1].
func unpackRun(data []byte) (*Result, RunOptions, consultant.Config, error) {
	var t packed.Table
	c, n := packed.Open(&t, data, "pperfmark: corrupt run description", 1)
	prog, unsup := c.Str(), c.Str()
	var x [runInts]int64
	for i := range x {
		x[i] = c.Varint()
	}
	pc := consultant.Config{SyncThreshold: math.Float64frombits(c.Uvarint()), IOThreshold: math.Float64frombits(c.Uvarint()),
		CPUThreshold: math.Float64frombits(c.Uvarint()), EvalInterval: sim.Duration(x[11]), PruneEvals: int(x[12])}
	res := &Result{Program: prog, Impl: mpi.ImplKind(x[0]),
		Params: Params{Iterations: int(x[2]), MessageSize: int(x[3]), Messages: int(x[4]), TimeToWaste: int(x[5]),
			Procs: int(x[6]), WasteUnit: sim.Duration(x[7]), Windows: int(x[8]), Children: int(x[9])},
		RunTime: sim.Time(x[14]), ProbeExecs: x[15]}
	for i := 0; i < n && c.Err == nil; i++ {
		res.FaultLog = append(res.FaultLog, c.Str())
	}
	if unsup != "" {
		res.Unsupported = errors.New(unsup)
	}
	opt := RunOptions{Impl: res.Impl, Params: res.Params, Seed: uint64(x[1]), DisablePC: x[10] != 0}
	if x[13] != 0 {
		opt.Trace = &trace.Config{}
	}
	switch {
	case c.Err != nil:
	case res.Impl < mpi.LAM || res.Impl > mpi.Reference:
		c.Fail("personality %d", x[0])
	case slices.ContainsFunc(x[2:10], func(v int64) bool { return v < 0 }) || pc.PruneEvals < 0:
		c.Fail("negative parameter or prune count in %v", x[2:13])
	case pc.EvalInterval <= 0 || res.RunTime < 0:
		c.Fail("evaluation interval %v, run time %v", pc.EvalInterval, res.RunTime)
	case core.CheckThreshold(pc.SyncThreshold) != nil || core.CheckThreshold(pc.IOThreshold) != nil || core.CheckThreshold(pc.CPUThreshold) != nil:
		c.Fail("thresholds %v, %v, %v", pc.SyncThreshold, pc.IOThreshold, pc.CPUThreshold)
	}
	return res, opt, pc, c.Close()
}

// stampRecording stamps the description of a run laid out on nodes nodes,
// and the Meta pairs the store index reads, into the recorder's header: at
// launch (final false) what is known then, which lands in the header chunk so
// a crashed run's archive replays, and at the end all of it. A no-op when the
// run is not recording.
func stampRecording(opt RunOptions, res *Result, pcCfg consultant.Config, nodes int, final bool) {
	rec := opt.Record
	if rec == nil {
		return
	}
	rec.SetExtra(packRun(res, opt, pcCfg))
	rec.SetMeta("program", res.Program)
	rec.SetMeta("impl", res.Impl.String())
	rec.SetMeta("seed", fmt.Sprintf("%d", opt.Seed))
	rec.SetMeta("procs", fmt.Sprintf("%d", res.Params.Procs))
	rec.SetMeta("nodes", fmt.Sprintf("%d", nodes))
	if opt.Faults != nil {
		rec.SetMeta("faults", opt.Faults.String())
	}
	if !final {
		return
	}
	rec.SetMeta("runtime", res.RunTime.String())
	// The fired-fault audit trail also lands in the header, one line per
	// entry, so store-level consumers (the diff plane's -since-fault
	// window anchor) can read fire times without decoding the harness
	// payload in Extra.
	if len(res.FaultLog) > 0 {
		rec.SetMeta("fault-log", strings.Join(res.FaultLog, "\n"))
	}
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
	if len(a.Header.Extra) == 0 {
		return nil, fmt.Errorf("pperfmark: archive carries no run description (not recorded by this harness?)")
	}
	res, opt, pc, err := unpackRun(a.Header.Extra)
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
