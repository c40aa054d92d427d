// Package daemon implements the tool's per-node daemon (paradynd in the
// paper): it owns the application processes on its node, inserts and deletes
// instrumentation on request, samples metric values on a fixed cadence,
// discovers resources at run time (processes, functions, communicators, RMA
// windows, spawned children), and forwards everything to the front end over
// a transport.
package daemon

import (
	"slices"

	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/wire"
)

// Transport carries daemon reports to the front end: one report is one
// session.Event (samples, an update or a trace shard), the same value the
// front end folds into its View and records. The in-process implementation
// is the front end itself; the TCP implementation frames the event (a batch
// or shard packed) over a socket. A non-nil error means the report was NOT
// observed by the front end (after any retries the transport performs
// internally); the daemon queues such reports and replays them on recovery.
//
// The caller owns ev.Samples — the rule session.Sink states for Record:
// Report reads the batch before it returns and never keeps it, so a daemon
// builds every batch it delivers in one reused backing array.
type Transport interface {
	Report(ev session.Event) error
}

// ChannelOf is the one statement of which channel a report rides: trace
// shards ride bulk — their own stream (a second TCP connection with its own
// retry/backoff and dedupe, a separate injection point in process) and their
// own daemon-side queue, so trace volume never sits on the sampling path —
// and every other report rides ctl. ok is false for the event kinds daemons
// never send (enables, verdicts, barriers, gaps: the front end's own).
func ChannelOf(k session.EventKind) (ch string, ok bool) {
	switch k {
	case session.EvShard:
		return wire.ChanBulk, true
	case session.EvSamples, session.EvUpdate:
		return wire.ChanCtl, true
	}
	return "", false
}

// SpawnMethod selects how the tool supports MPI_Comm_spawn (§4.2.2).
type SpawnMethod int

const (
	// SpawnIntercept wraps MPI_Comm_spawn via the PMPI interface, starting
	// a tool daemon per child: simple, but inflates the measured cost of
	// the spawn operation.
	SpawnIntercept SpawnMethod = iota
	// SpawnAttach lets the spawn proceed untouched and attaches to the new
	// processes afterwards using MPIR-proctable-style information: lower
	// overhead, but instrumentation starts late.
	SpawnAttach
)

var spawnNames = [...]string{"intercept", "attach"}

// String names the method as the -spawn flag and a run record spell it.
func (m SpawnMethod) String() string { return spawnNames[m] }

// ParseSpawnMethod is String's inverse: ok is false for a name no method has.
func ParseSpawnMethod(name string) (m SpawnMethod, ok bool) {
	i := slices.Index(spawnNames[:], name)
	return SpawnMethod(i), i >= 0
}

// Config controls daemon behaviour.
type Config struct {
	// SampleInterval is the metric sampling cadence (default 0.2 s, the
	// histogram's base granularity).
	SampleInterval sim.Duration
	// Spawn selects the dynamic-process-creation support method.
	Spawn SpawnMethod
	// Heartbeat, when nonzero, makes the daemon emit a liveness beacon on
	// that virtual-time cadence. Zero (the default) disables heartbeats so
	// fault-free runs schedule no extra events and stay byte-identical with
	// historical behaviour; the fault subsystem turns it on.
	Heartbeat sim.Duration
}

// perProbeCost is the virtual-time cost charged per probe execution.
const perProbeCost = 80 * sim.Nanosecond

// The spawn support methods' costs: how long after a spawn the attach
// method takes to reach the new processes (during which their activity is
// unobserved), and the daemon-startup overhead the intercept method adds to
// each spawned process.
const (
	attachLatency    = 25 * sim.Millisecond
	interceptPerProc = 40 * sim.Millisecond
)

// The daemon-side queue bounds: how many reports wait for a down ctl
// channel, and how many trace shards for a down bulk channel, before the
// oldest are evicted.
const (
	ctlQueueLimit  = 4096
	bulkQueueLimit = 1024
)

// DefaultConfig returns the standard daemon configuration.
func DefaultConfig() Config {
	return Config{
		SampleInterval: 200 * sim.Millisecond,
		Spawn:          SpawnIntercept,
	}
}
