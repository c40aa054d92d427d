package frontend

// The daemon supervisor: the self-healing half of the resilience stack.
// Detection stays where it always was — the liveness monitor (heartbeat
// silence) and the fault injector (a restartable crash-daemon fault) both
// report a down daemon to NoteDown. The supervisor then runs the classic
// supervised-restart loop, all in virtual time so faulted runs stay
// exactly reproducible:
//
//	detect → backoff (seeded exponential) → respawn a new incarnation →
//	re-attach to the node's still-running processes → resynchronize state
//	(replay the active metric-focus set, restart heartbeats, fresh bulk
//	channel) → account the outage as an unmeasured gap.
//
// Bounded attempts (maxRestarts) and a flap-quarantine (too many failures
// inside a sliding window) guarantee termination: a node that exhausts its
// budget falls back to the pre-supervisor permanent-loss semantics the
// liveness monitor already implements.

import (
	"sync"

	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/wire"
)

// A fault plan sets the restart budget and the jitter seed (NewSupervisor's
// maxRestarts and seed); the rest of the policy is fixed: a quick first retry
// with bounded exponential growth (virtual time), and flap-quarantine —
// maxRestarts+2 failures within flapWindow give the node up for good, so
// quarantine only triggers on pathological flapping, not on a plan that
// legitimately uses its whole restart budget.
const (
	respawnBaseBackoff = 50 * sim.Millisecond
	respawnMaxBackoff  = sim.Second
	flapWindow         = 5 * sim.Second
)

// RespawnFunc builds, attaches and returns a new daemon incarnation for a
// node: the session layer implements it (crash the previous incarnation,
// dial a fresh transport stamped with the incarnation number, install the
// replacement in the daemon roster, adopt the node's still-running
// processes, re-arm tracing). It must NOT start the daemon — the supervisor
// starts it only after resynchronization succeeds.
type RespawnFunc func(node string, incarnation int) (*daemon.Daemon, error)

// Supervisor owns the per-node restart state machine.
type Supervisor struct {
	fe  *FrontEnd
	eng *sim.Engine
	// maxRestarts bounds respawn attempts per node (the plan's restarts=K).
	maxRestarts int
	respawn     RespawnFunc
	rng         *sim.RNG
	// notef, when non-nil, lands supervisor decisions in the fault
	// injector's audit log (the same trail the faults appear in).
	notef func(now sim.Time, format string, args ...any)

	mu    sync.Mutex
	nodes map[string]*nodeState
}

// nodeState is one node's restart ledger.
type nodeState struct {
	incarnation int  // current daemon incarnation (1 = original)
	restarts    int  // respawn attempts consumed
	pending     bool // a backoff/respawn is in flight
	quarantined bool // flap-quarantine tripped: permanent loss
	exhausted   bool // restart budget spent: permanent loss
	abandoned   bool // unrestartable failure (kill-node, bare crash-daemon)
	// down latches across failed respawn attempts so downSince keeps the
	// FIRST detection time: the eventual gap covers the whole outage, not
	// just the tail after the last retry.
	down      bool
	downSince sim.Time
	failures  []sim.Time // failure times inside the flap window
}

// NewSupervisor arms a supervisor on the front end with a per-node budget of
// maxRestarts respawn attempts; seed drives the backoff jitter (equal seeds
// give identical schedules). notef may be nil.
func NewSupervisor(fe *FrontEnd, eng *sim.Engine, maxRestarts int, seed uint64, respawn RespawnFunc,
	notef func(now sim.Time, format string, args ...any)) *Supervisor {
	sv := &Supervisor{
		fe: fe, eng: eng, maxRestarts: maxRestarts, respawn: respawn,
		rng:   sim.NewRNG(seed ^ 0x73757076), // "supv": own jitter stream
		notef: notef,
		nodes: map[string]*nodeState{},
	}
	fe.sv = sv
	return sv
}

// Supervisor returns the attached supervisor (nil when none is armed).
func (fe *FrontEnd) Supervisor() *Supervisor { return fe.sv }

func (sv *Supervisor) note(format string, args ...any) {
	if sv.notef != nil {
		sv.notef(sv.eng.Now(), format, args...)
	}
}

func (sv *Supervisor) state(node string) *nodeState {
	s, ok := sv.nodes[node]
	if !ok {
		s = &nodeState{incarnation: 1}
		sv.nodes[node] = s
	}
	return s
}

// MarkUnrestartable excludes a node from supervision: its failure mode
// (node kill, non-restartable daemon crash) is permanent by definition.
func (sv *Supervisor) MarkUnrestartable(node string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.state(node).abandoned = true
}

// NodeStats is one node's restart ledger as the supervisor reports it.
type NodeStats struct {
	Incarnation int  // current daemon incarnation (1 = original)
	Restarts    int  // respawn attempts consumed
	Quarantined bool // flap-quarantine tripped
}

// Stats returns a snapshot of the restart ledger of every node the
// supervisor has heard of; a node missing from it never failed.
func (sv *Supervisor) Stats() map[string]NodeStats {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make(map[string]NodeStats, len(sv.nodes))
	for node, s := range sv.nodes {
		out[node] = NodeStats{s.incarnation, s.restarts, s.quarantined}
	}
	return out
}

// NoteDown reports that a node's daemon is down. Both detection paths call
// it: the liveness monitor on heartbeat silence, and the session layer
// directly when a restartable crash-daemon fault fires (which also covers
// hb=0 plans, where heartbeat silence can never be observed). Duplicate
// verdicts while a respawn is already in flight are absorbed.
func (sv *Supervisor) NoteDown(node string) {
	sv.mu.Lock()
	s := sv.state(node)
	if s.pending || s.quarantined || s.exhausted || s.abandoned {
		sv.mu.Unlock()
		return
	}
	now := sv.eng.Now()

	// Flap-quarantine: count failures inside the sliding window.
	kept := s.failures[:0]
	for _, t := range s.failures {
		if now.Sub(t) <= flapWindow {
			kept = append(kept, t)
		}
	}
	s.failures = append(kept, now)
	if len(s.failures) >= sv.maxRestarts+2 {
		s.quarantined = true
		sv.mu.Unlock()
		sv.note("supervisor: quarantine %s (%d failures within %v); giving up", node, len(s.failures), flapWindow)
		return
	}

	if s.restarts >= sv.maxRestarts {
		s.exhausted = true
		sv.mu.Unlock()
		sv.note("supervisor: restart budget exhausted for %s (%d used); giving up", node, s.restarts)
		return
	}

	s.pending = true
	if !s.down {
		s.down = true
		s.downSince = now
	}
	attempt := s.restarts
	s.restarts++
	// Bounded exponential delay with seeded jitter, over virtual time — the
	// same wire-plane schedule the transports use over wall-clock time, so
	// respawn timing under simulated faults is exactly reproducible.
	delay := wire.Backoff(respawnBaseBackoff, respawnMaxBackoff, attempt, sv.rng)
	sv.mu.Unlock()

	sv.note("supervisor: daemon on %s down; respawn attempt %d in %v", node, attempt+1, delay)
	sv.eng.After(delay, func() { sv.doRespawn(node) })
}

// doRespawn runs one respawn + re-attach + resynchronize cycle. Any
// failure — the respawn itself, or the daemon dying mid-resync — re-enters
// NoteDown, which either schedules the next backoff or gives up. The
// failed incarnation is crashed and discarded; the next cycle builds a
// brand-new daemon object, so state (enables, queues) is never applied
// twice to the same incarnation.
func (sv *Supervisor) doRespawn(node string) {
	sv.mu.Lock()
	s := sv.state(node)
	s.incarnation++
	inc := s.incarnation
	downSince := s.downSince
	sv.mu.Unlock()

	now := sv.eng.Now()
	d, err := sv.respawn(node, inc)
	if err != nil {
		sv.note("supervisor: respawn of %s (incarnation %d) failed: %v", node, inc, err)
		sv.clearPending(node)
		sv.NoteDown(node)
		return
	}

	if err := sv.fe.resyncDaemon(d); err != nil {
		// The daemon died (or refused an enable) during the
		// resynchronization protocol: treat the whole respawn as failed.
		d.Crash()
		sv.note("supervisor: resync of %s (incarnation %d) failed: %v", node, inc, err)
		sv.clearPending(node)
		sv.NoteDown(node)
		return
	}
	d.Start()

	// The outage window [downSince, now] is unmeasured: samples for it
	// were never collected, and histogram zeros across it must not be
	// mistaken for idleness.
	sv.fe.ingest(session.Event{Kind: session.EvGap, Gap: datasource.Gap{Node: node, From: downSince, To: now}})
	sv.mu.Lock()
	s = sv.state(node)
	s.down = false
	sv.mu.Unlock()
	sv.clearPending(node)
	sv.note("supervisor: respawned daemon on %s (incarnation %d) after %v outage", node, inc, now.Sub(downSince))
}

func (sv *Supervisor) clearPending(node string) {
	sv.mu.Lock()
	sv.state(node).pending = false
	sv.mu.Unlock()
}
