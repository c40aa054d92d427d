// Package frontend implements the tool's front-end process: the live
// implementation of the analysis plane's DataSource interface. It ingests
// the samples the per-node daemons forward into the shared datasource.View
// (folding histograms, the mirrored resource hierarchy, the observed call
// graph, process lifecycle, the merged trace timeline), fans metric
// enable/disable requests out to the daemons, and — when a session recorder
// is attached — captures the whole event stream into a replayable archive.
package frontend

import (
	"fmt"
	"slices"
	"sync"

	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// FrontEnd is the tool's central state. It embeds the source-agnostic
// datasource.View (queries, series, hierarchy, liveness, trace timeline)
// and adds what only the live side has: the daemons to fan instrumentation
// requests out to and the optional session recorder. It is the in-process
// daemon.Transport; the TCP listener delivers into the same Report.
type FrontEnd struct {
	*datasource.View

	// daemons is the roster of which daemon serves which node, shared with
	// the world hooks and the session's fault hooks (nil: no daemons).
	daemons *daemon.Registry

	// rec, when non-nil, captures the analysis-plane event stream for
	// offline replay. ingest is its only reader: a nil test when recording
	// is off, so a cold recorder costs nothing on the sampling path.
	rec session.Sink

	// emu guards active — the currently-enabled metric-focus set, which
	// the supervisor replays onto respawned daemon incarnations.
	emu    sync.Mutex
	active []datasource.Pair

	// sv, when non-nil, is the daemon supervisor; the liveness monitor
	// feeds it detection verdicts. Nil (the default) keeps today's
	// permanent-loss semantics and costs one pointer test.
	sv *Supervisor
}

// FrontEnd must satisfy the full DataSource contract (the Consultant and
// everything else above the wire depends only on that interface).
var _ datasource.DataSource = (*FrontEnd)(nil)

// New creates an empty front end.
func New() *FrontEnd {
	return &FrontEnd{View: datasource.NewView()}
}

// SetRecorder attaches a session recorder; every subsequently ingested
// event is captured. Call before Launch so the archive holds the complete
// stream. A nil recorder detaches.
func (fe *FrontEnd) SetRecorder(rec session.Sink) { fe.rec = rec }

// ingest is the one way anything enters the front end's state: fold the
// event into the View with the same Event.Apply a replay runs, then hand
// it to the recorder. Replay == live follows from there being no other.
func (fe *FrontEnd) ingest(ev session.Event) {
	ev.Apply(fe.View)
	if fe.rec != nil {
		fe.rec.Record(ev)
	}
}

// SetDaemons hands the front end the roster of daemons it controls. The
// roster is read on every fan-out, so an incarnation swapped in with
// Registry.Replace is the one later requests reach.
func (fe *FrontEnd) SetDaemons(reg *daemon.Registry) { fe.daemons = reg }

// Report implements daemon.Transport: ingest one daemon report — samples,
// an update or a trace shard. In process there is no wire, so it is a direct
// call that fails only for an event kind daemons never send. The View folds a
// batch's samples and the recorder packs them before Report returns; neither
// keeps ev.Samples.
func (fe *FrontEnd) Report(ev session.Event) error {
	if _, ok := daemon.ChannelOf(ev.Kind); !ok {
		return fmt.Errorf("frontend: %v event is not a daemon report", ev.Kind)
	}
	fe.ingest(ev)
	return nil
}

// NoteUndelivered folds end-of-run undelivered-span accounting into the
// timeline (and the session archive, when recording).
func (fe *FrontEnd) NoteUndelivered(proc string, n int64) {
	fe.ingest(session.Event{Kind: session.EvUndelivered, Proc: proc, N: n})
}

// EnableMetric turns on a metric-focus pair across all daemons, returning
// its series. A pair in the active set is already on; one disabled since it
// last collected is instrumented again and fills the same series. Enabling
// is all-or-nothing: if any daemon refuses, the daemons already instrumented
// are rolled back and a series this call registered is unregistered before
// the error returns (one with history stays), so a failed enable leaves no
// partially-enabled state behind (no orphaned probes charging overhead, no
// registered series silently collecting a subset of nodes).
func (fe *FrontEnd) EnableMetric(metricName string, focus resource.Focus) (*datasource.Series, error) {
	s, existed := fe.View.RegisterSeries(metricName, focus)
	fe.emu.Lock()
	on := fe.activeIndex(metricName, focus) >= 0
	fe.emu.Unlock()
	if on {
		return s, nil
	}
	ds := fe.daemons.All()
	for i, d := range ds {
		if _, err := d.Enable(metricName, focus); err != nil {
			for _, prev := range ds[:i] {
				prev.Disable(metricName, focus)
			}
			if !existed {
				fe.View.DropSeries(metricName, focus)
			}
			fe.ingest(session.Event{Kind: session.EvEnable, Metric: metricName, Focus: focus, Err: err.Error()})
			return nil, err
		}
	}
	fe.emu.Lock()
	fe.active = append(fe.active, datasource.Pair{Metric: metricName, Focus: focus})
	fe.emu.Unlock()
	fe.ingest(session.Event{Kind: session.EvEnable, Metric: metricName, Focus: focus})
	return s, nil
}

// activeIndex returns the pair's position in the active set, or -1. Caller
// holds fe.emu.
func (fe *FrontEnd) activeIndex(metricName string, focus resource.Focus) int {
	want := datasource.Pair{Metric: metricName, Focus: focus}.Canon()
	return slices.IndexFunc(fe.active, func(p datasource.Pair) bool { return p.Canon() == want })
}

// DisableMetric removes a metric-focus pair's instrumentation. The
// collected series remains queryable.
func (fe *FrontEnd) DisableMetric(metricName string, focus resource.Focus) {
	for _, d := range fe.daemons.All() {
		d.Disable(metricName, focus)
	}
	fe.emu.Lock()
	if i := fe.activeIndex(metricName, focus); i >= 0 {
		fe.active = slices.Delete(fe.active, i, i+1)
	}
	fe.emu.Unlock()
}

// resyncDaemon replays the active metric-focus set onto a freshly
// respawned daemon — the state-resynchronization half of the supervisor's
// re-attach. Enables are applied in original enable order so the daemon's
// instrumentation sequence (and any cost accounting derived from it) is
// deterministic. A failure — including the daemon dying mid-protocol —
// aborts immediately; the supervisor treats the respawn as failed and
// re-enters backoff with a brand-new incarnation, so no daemon object is
// ever enabled twice.
func (fe *FrontEnd) resyncDaemon(d *daemon.Daemon) error {
	fe.emu.Lock()
	active := append([]datasource.Pair(nil), fe.active...)
	fe.emu.Unlock()
	for _, p := range active {
		if d.Crashed() {
			return fmt.Errorf("frontend: daemon %s died during resynchronization", d.Name())
		}
		if _, err := d.Enable(p.Metric, p.Focus); err != nil {
			return fmt.Errorf("frontend: resync enable %s %s: %w", p.Metric, p.Focus, err)
		}
	}
	if d.Crashed() {
		return fmt.Errorf("frontend: daemon %s died during resynchronization", d.Name())
	}
	return nil
}

// Sync implements the DataSource read barrier: consumers (the Performance
// Consultant) call it before each evaluation pass. Live state is always
// current, so the only work is stamping the barrier into the session
// archive — which is what lets a replay reproduce each evaluation's exact
// input state.
func (fe *FrontEnd) Sync() {
	fe.ingest(session.Event{Kind: session.EvBarrier})
}

// --- liveness ---------------------------------------------------------------

// StartLiveness arms the periodic liveness monitor: every interval of
// virtual time it checks each known daemon's last contact, and one that has
// been silent longer than timeout is marked stale with all its un-exited
// processes lost. The roster's daemons are pre-seeded so a
// daemon that dies before its first report is still detected. The pre-seed
// flows through Report as a heartbeat update, so a recording session
// captures it like any other liveness evidence.
func (fe *FrontEnd) StartLiveness(eng *sim.Engine, interval, timeout sim.Duration) {
	now := eng.Now()
	for _, d := range fe.daemons.All() {
		fe.Report(session.Event{Kind: session.EvUpdate, Update: datasource.Update{
			Kind: datasource.UpHeartbeat, Daemon: d.Name(), Time: now,
		}})
	}
	eng.Every(interval, func() { fe.checkLiveness(eng.Now(), timeout) })
}

// checkLiveness marks daemons silent for longer than timeout as stale and
// their processes as lost. Verdicts are applied in sorted daemon order
// (SilentDaemons sorts) so detection — and its recording — is independent
// of map layout.
func (fe *FrontEnd) checkLiveness(now sim.Time, timeout sim.Duration) {
	for _, name := range fe.View.SilentDaemons(now, timeout) {
		fe.ingest(session.Event{Kind: session.EvStale, Update: datasource.Update{Daemon: name, Time: now}})
		if fe.sv != nil {
			fe.sv.NoteDown(datasource.DaemonNode(name))
		}
	}
}
