package pperfmark

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/mpi"
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

// finishRecording stamps the archived run's description, laid out on nodes
// nodes, into the recorder's header. A no-op when the run is not recording.
func finishRecording(opt RunOptions, res *Result, pcCfg consultant.Config, nodes int) {
	rec := opt.Record
	if rec == nil {
		return
	}
	info := runInfo{
		Program:    res.Program,
		Impl:       res.Impl,
		Params:     res.Params,
		Seed:       opt.Seed,
		DisablePC:  opt.DisablePC,
		PC:         pcCfg,
		Traced:     opt.Trace != nil,
		RunTime:    res.RunTime,
		ProbeExecs: res.ProbeExecs,
		FaultLog:   res.FaultLog,
	}
	if res.Unsupported != nil {
		info.Unsupported = res.Unsupported.Error()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&info); err != nil {
		// runInfo is all value types; an encode failure is a programming
		// error worth failing loudly on, not a recoverable condition.
		panic(fmt.Sprintf("pperfmark: encode run info: %v", err))
	}
	rec.SetExtra(buf.Bytes())
	rec.SetMeta("program", res.Program)
	rec.SetMeta("impl", res.Impl.String())
	rec.SetMeta("seed", fmt.Sprintf("%d", opt.Seed))
	// The experiment-store index (internal/perfdb) reads these without
	// decoding the harness payload.
	rec.SetMeta("procs", fmt.Sprintf("%d", res.Params.Procs))
	rec.SetMeta("nodes", fmt.Sprintf("%d", nodes))
	rec.SetMeta("runtime", res.RunTime.String())
	if opt.Faults != nil {
		rec.SetMeta("faults", opt.Faults.String())
	}
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
	var info runInfo
	if err := gob.NewDecoder(bytes.NewReader(a.Header.Extra)).Decode(&info); err != nil {
		return nil, fmt.Errorf("pperfmark: corrupt run description in archive: %v", err)
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
