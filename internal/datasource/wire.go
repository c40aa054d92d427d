package datasource

// The wire report types daemons send and every data source ingests. They
// live here (rather than in internal/daemon) so the replay machinery can
// decode an archive without linking the daemon.

import (
	"strings"

	"pperf/internal/resource"
	"pperf/internal/sim"
)

// Sample is one sampled metric delta for one process.
type Sample struct {
	Metric string
	Focus  resource.Focus
	Proc   string
	Time   sim.Time
	Delta  float64
	Value  float64 // cumulative value, for SampledFunction-style reads
}

// UpdateKind enumerates resource-update reports (§4.2.3).
type UpdateKind int

const (
	// UpAddResource announces a new resource at Path.
	UpAddResource UpdateKind = iota
	// UpRetire marks the resource at Path deallocated.
	UpRetire
	// UpSetName attaches a user-friendly display name to Path.
	UpSetName
	// UpCallEdge reports an observed caller→callee pair.
	UpCallEdge
	// UpProcessExit reports that the process named Proc finished.
	UpProcessExit
	// UpProcessLost reports that the process named Proc was forcibly
	// terminated (node crash, job abort) without exiting cleanly.
	UpProcessLost
	// UpHeartbeat is a periodic liveness beacon carrying no resource change;
	// the front end uses it (and any other report stamped with Daemon) to
	// detect crashed or hung daemons.
	UpHeartbeat
)

// Update is a resource-update report from daemon to front end.
type Update struct {
	Kind           UpdateKind
	Path           string
	Display        string
	Proc           string
	Caller, Callee string
	Time           sim.Time
	// Daemon identifies the sending daemon (liveness tracking). The in-
	// process transport and old captures leave it empty.
	Daemon string
}

// ProcInfo is what a data source knows about one application process.
type ProcInfo struct {
	Name    string
	Node    string
	Started sim.Time
	Exited  bool
	EndTime sim.Time
	// Lost marks a process that stopped reporting without a clean exit: its
	// daemon reported it forcibly terminated, or the daemon itself went
	// silent (crash/hang detected by the liveness monitor). Lost processes'
	// data is stale from LostTime on and they leave the Performance
	// Consultant's candidate set.
	Lost     bool
	LostTime sim.Time
}

// DaemonHealth is the liveness view of one daemon.
type DaemonHealth struct {
	Name     string
	Node     string // node the daemon serves ("" if not derivable)
	LastSeen sim.Time
	// Stale marks a daemon that has missed enough heartbeats to be presumed
	// crashed or hung. A later report from it clears the mark (recovery).
	Stale bool
}

// Gap is one unmeasured window on a node: the span between a daemon
// incarnation dying and its successor re-attaching. Samples for the window
// were never collected, so histograms silently read zero across it; the
// Consultant consults the gap list to mark hypotheses whose evaluation
// interval overlaps one as partial instead of trusting the zeros.
type Gap struct {
	Node string
	From sim.Time
	To   sim.Time
}

// DaemonNode derives the node name from the daemon identity convention
// ("paradynd@<node>").
func DaemonNode(name string) string {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		return name[i+1:]
	}
	return ""
}
