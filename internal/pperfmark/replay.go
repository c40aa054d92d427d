package pperfmark

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"pperf/internal/consultant"
	"pperf/internal/daemon"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// stampRecording stamps res's run record into rec's header, one Meta pair
// per fact: the node count, the spec (all Replay needs) and what the run
// observed that a replay cannot recompute. At launch (final false) it stamps
// what is known then, into the header chunk, so a crashed run replays.
func stampRecording(rec session.Sink, res *Result, final bool) {
	if rec == nil {
		return
	}
	nodes, _ := layout(res.Program, res.Params)
	rec.SetMeta("nodes", strconv.Itoa(nodes))
	res.record(final, rec.SetMeta)
}

// record calls set with each pair of r's run record but nodes, in key order.
func (r *Result) record(final bool, set func(k, v string)) {
	for _, f := range r.facts(final) {
		if f.keep || !reflect.ValueOf(f.ptr).Elem().IsZero() {
			set(f.key, f.text())
		}
	}
}

// String names the run: the pairs a run of s records at launch, which are
// its spec's, key=value in key order.
func (s Spec) String() string {
	var pairs []string
	(&Result{Spec: s}).record(false, func(k, v string) { pairs = append(pairs, k+"="+quoted(v)) })
	return strings.Join(pairs, " ")
}

// quoted is v Go-quoted when it is empty or holds a space, an = or anything
// %q escapes, and v itself otherwise.
func quoted(v string) string {
	if q := strconv.Quote(v); v == "" || strings.ContainsAny(v, " =") || q[1:len(q)-1] != v {
		return q
	}
	return v
}

// fact is one pair of a run record: its key, a pointer to the field it
// holds, and whether it is kept even when zero (an absent pair reads as zero).
type fact struct {
	key  string
	ptr  any
	keep bool
}

// facts lists the pairs of r's run record but nodes, in key order: its spec
// and what the run observed, the run time once it is over (final).
func (r *Result) facts(final bool) [24]fact {
	p, pc := &r.Params, &r.PCConfig
	return [...]fact{{"children", &p.Children, false}, {"fault-log", &r.FaultLog, false}, {"faults", &r.Faults, false},
		{"impl", &r.Impl, true}, {"iterations", &p.Iterations, false}, {"message-size", &p.MessageSize, false},
		{"messages", &p.Messages, false}, {"pc-cpu", &pc.CPUThreshold, false}, {"pc-eval", &pc.EvalInterval, false},
		{"pc-io", &pc.IOThreshold, false}, {"pc-off", &r.DisablePC, false}, {"pc-prune", &pc.PruneEvals, false},
		{"pc-sync", &pc.SyncThreshold, false}, {"probe-execs", &r.ProbeExecs, false}, {"procs", &p.Procs, true},
		{"program", &r.Program, true}, {"runtime", &r.RunTime, final}, {"seed", &r.Seed, true},
		{"spawn", &r.Spawn, false}, {"traced", &r.Traced, false}, {"ttw", &p.TimeToWaste, false},
		{"unsupported", &r.Unsupported, false}, {"waste-unit", &p.WasteUnit, false}, {"windows", &p.Windows, false}}
}

// text is f's field as its pair's text: its %v (a threshold the shortest
// text that parses back), but nanoseconds for a time or duration, the fault
// log's lines, and 1 for a flag, which is written only when set.
func (f fact) text() string {
	v := reflect.ValueOf(f.ptr).Elem()
	switch p := f.ptr.(type) {
	case *bool:
		return "1"
	case *sim.Time, *sim.Duration:
		return strconv.FormatInt(v.Int(), 10)
	case *[]string:
		return strings.Join(*p, "\n")
	}
	return fmt.Sprint(v)
}

// parse sets f's field from t, its pair's text. An absent pair (t empty)
// reads as zero, unless it is kept, which every record holds.
func (f fact) parse(t string) (err error) {
	v := reflect.ValueOf(f.ptr).Elem()
	if t == "" && !f.keep {
		v.SetZero()
		return nil
	}
	switch p := f.ptr.(type) {
	case *mpi.ImplKind:
		*p, err = mpi.ParseImpl(t)
	case *daemon.SpawnMethod: // the zero value, intercept, is left out
		if *p = daemon.SpawnAttach; t != p.String() {
			err = errors.New("unknown spawn method")
		}
	case **faults.Plan:
		*p, err = faults.Parse(t)
	case *[]string:
		*p = strings.Split(t, "\n")
	case *error:
		*p = errors.New(t)
	case *string:
		*p = t
	case *bool:
		*p, err = strconv.ParseBool(t)
	case *float64:
		*p, err = strconv.ParseFloat(t, 64)
	case *uint64:
		*p, err = strconv.ParseUint(t, 10, 64)
	default:
		var n int64
		n, err = strconv.ParseInt(t, 10, 64)
		v.SetInt(n)
	}
	return err
}

// decodeRun decodes the run record in an archive header's Meta back into the
// run's result. A value that does not parse is an error, and so is a record
// no live run writes: a spec check refuses, or a negative count or run time.
func decodeRun(meta map[string]string) (*Result, error) {
	if len(meta) == 0 {
		return nil, errors.New("pperfmark: archive carries no run description (not recorded by this harness?)")
	}
	res := &Result{}
	for _, f := range res.facts(false) {
		if err := f.parse(meta[f.key]); err != nil {
			return nil, fmt.Errorf("pperfmark: corrupt run description: %s %q: %w", f.key, meta[f.key], err)
		}
	}
	if err := res.Spec.check(false); err != nil || res.ProbeExecs < 0 || res.RunTime < 0 {
		err = cmp.Or(err, fmt.Errorf("probe count %d, run time %v", res.ProbeExecs, res.RunTime))
		return nil, fmt.Errorf("pperfmark: corrupt run description: %w", err)
	}
	return res, nil
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
	res, err := decodeRun(a.Header.Meta)
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
		res.RunTime = sim.Time(barriers) * sim.Time(res.PCConfig.EvalInterval)
	}
	if evals := res.RunTime / sim.Time(res.PCConfig.EvalInterval); !res.DisablePC && evals > sim.Time(barriers) {
		return nil, fmt.Errorf("pperfmark: corrupt run description: run time %v promises %d evaluations, archive holds %d barriers", res.RunTime, evals, barriers)
	}
	pc := &res.PCConfig // each non-zero what-if threshold in place of the recorded one
	pc.SyncThreshold, pc.IOThreshold = cmp.Or(o.SyncThreshold, pc.SyncThreshold), cmp.Or(o.IOThreshold, pc.IOThreshold)
	pc.CPUThreshold = cmp.Or(o.CPUThreshold, pc.CPUThreshold)
	if err := res.Spec.check(false); err != nil {
		return nil, fmt.Errorf("pperfmark: what-if %w", err)
	}
	if res.Unsupported != nil {
		return res, nil
	}

	rs := session.NewReplaySource(a)
	if res.Traced {
		// A traced live run has a timeline even if no shards arrived.
		rs.EnableTrace()
	}
	res.Source = rs

	if err := enableVerification(rs, res); err != nil {
		return nil, err
	}

	// A fresh engine paces the Consultant exactly as the live one did:
	// evaluations fire on the same virtual-time grid, and each calls
	// Sync, which advances the replay to the matching recorded barrier.
	eng := sim.NewEngine(res.Seed)
	if !res.DisablePC {
		res.PC = consultant.New(rs, eng, res.PCConfig)
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
