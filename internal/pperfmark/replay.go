package pperfmark

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/mpi"
	"pperf/internal/packed"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// runInfo is the run description a recording stores in the archive
// header's Extra payload: everything Replay needs to re-drive the
// Performance Consultant against the recorded event stream, plus the
// live-only facts (fault log, probe counts) a replay cannot recompute.
type runInfo struct {
	Program string
	Impl    mpi.ImplKind
	Params  Params
	Seed    uint64

	DisablePC bool
	PC        consultant.Config

	Traced bool

	RunTime    sim.Time
	ProbeExecs int64
	FaultLog   []string

	// Unsupported carries the live run's "cannot run at all" message
	// (spawn on MPICH, passive target outside Reference), so replaying
	// such an archive reproduces the skip verdict.
	Unsupported string
}

// pack returns the run description as one record in internal/packed's
// dictionary form, the fault-log lines its records:
//
//	packed head: uvarint nFaultLog, the dictionary
//	uvarint Program's and Unsupported's dictionary indexes
//	zigzag Impl, Seed, the eight Params, DisablePC, EvalInterval,
//	       PruneEvals, Traced, RunTime, ProbeExecs
//	uvarint Float64bits of the sync, io and cpu thresholds
//	one dictionary index per fault-log line
func (info *runInfo) pack() []byte {
	var w packed.Writer
	w.Reset()
	prog, unsup := w.Intern(info.Program), w.Intern(info.Unsupported)
	for _, l := range info.FaultLog {
		w.Recs = append(w.Recs, [5]uint64{w.Intern(l)})
	}
	out := binary.AppendUvarint(binary.AppendUvarint(w.Head(nil, len(info.FaultLog)), prog), unsup)
	p, pc, bit := &info.Params, &info.PC, map[bool]int64{true: 1}
	for _, x := range [infoInts]int64{int64(info.Impl), int64(info.Seed), int64(p.Iterations), int64(p.MessageSize),
		int64(p.Messages), int64(p.TimeToWaste), int64(p.Procs), int64(p.WasteUnit), int64(p.Windows), int64(p.Children),
		bit[info.DisablePC], int64(pc.EvalInterval), int64(pc.PruneEvals), bit[info.Traced], int64(info.RunTime), info.ProbeExecs} {
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

const infoInts = 16

// unpackRunInfo decodes a run description. Corrupt input, and a description
// no replay could pace (an evaluation interval that is not positive, a
// negative run time), is an error, never a panic.
func unpackRunInfo(data []byte) (runInfo, error) {
	var t packed.Table
	c, n := packed.Open(&t, data, "pperfmark: corrupt run description", 1)
	prog, unsup := c.Str(), c.Str()
	var x [infoInts]int64
	for i := range x {
		x[i] = c.Varint()
	}
	th := [3]float64{math.Float64frombits(c.Uvarint()), math.Float64frombits(c.Uvarint()), math.Float64frombits(c.Uvarint())}
	info := runInfo{
		Program: prog, Unsupported: unsup, Impl: mpi.ImplKind(x[0]), Seed: uint64(x[1]),
		Params: Params{Iterations: int(x[2]), MessageSize: int(x[3]), Messages: int(x[4]), TimeToWaste: int(x[5]),
			Procs: int(x[6]), WasteUnit: sim.Duration(x[7]), Windows: int(x[8]), Children: int(x[9])},
		DisablePC: x[10] != 0,
		PC: consultant.Config{SyncThreshold: th[0], IOThreshold: th[1], CPUThreshold: th[2],
			EvalInterval: sim.Duration(x[11]), PruneEvals: int(x[12])},
		Traced: x[13] != 0, RunTime: sim.Time(x[14]), ProbeExecs: x[15],
	}
	for i := 0; i < n && c.Err == nil; i++ {
		info.FaultLog = append(info.FaultLog, c.Str())
	}
	if c.Err == nil && (info.PC.EvalInterval <= 0 || info.RunTime < 0) {
		c.Fail("evaluation interval %v, run time %v", info.PC.EvalInterval, info.RunTime)
	}
	return info, c.Close()
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
	info := runInfo{Program: res.Program, Impl: res.Impl, Params: res.Params, Seed: opt.Seed, DisablePC: opt.DisablePC,
		PC: pcCfg, Traced: opt.Trace != nil, RunTime: res.RunTime, ProbeExecs: res.ProbeExecs, FaultLog: res.FaultLog}
	if res.Unsupported != nil {
		info.Unsupported = res.Unsupported.Error()
	}
	rec.SetExtra(info.pack())
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
	info, err := unpackRunInfo(a.Header.Extra)
	if err != nil {
		return nil, err
	}
	if a.Truncated {
		// The clock stops at the last complete barrier's evaluation instant,
		// k intervals in for k barriers (NewReplaySource drops the rest), so
		// no evaluation reads state the live run never had.
		_, barriers := a.Replayable()
		info.RunTime = sim.Time(barriers) * sim.Time(info.PC.EvalInterval)
	}
	pcCfg, err := o.override(info.PC)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Program:    info.Program,
		Impl:       info.Impl,
		Params:     info.Params,
		RunTime:    info.RunTime,
		ProbeExecs: info.ProbeExecs,
		FaultLog:   info.FaultLog,
	}
	if info.Unsupported != "" {
		res.Unsupported = fmt.Errorf("%s", info.Unsupported)
		return res, nil
	}
	entry := Get(info.Program)
	if entry == nil {
		return nil, fmt.Errorf("pperfmark: archive records unknown program %q", info.Program)
	}

	rs := session.NewReplaySource(a)
	if info.Traced {
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
	eng := sim.NewEngine(info.Seed)
	if !info.DisablePC {
		res.PC = consultant.New(rs, eng, pcCfg)
		if err := res.PC.Start(); err != nil {
			return nil, err
		}
	}
	// The replay clock: a single proc sleeping for the recorded runtime
	// keeps the engine alive through the last live evaluation instant
	// (scheduled callbacks at a time T fire before a proc resuming at T).
	eng.StartProc("replay-clock", func(p *sim.Proc) {
		p.Sleep(sim.Duration(info.RunTime))
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
