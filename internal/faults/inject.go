package faults

import (
	"fmt"
	"sync"

	"pperf/internal/daemon"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/wire"
)

// Hooks are the actions the injector drives. The session layer wires them to
// the world, daemons, network overlay and transports — the faults package
// itself knows only the schedule, keeping it free of upward dependencies.
type Hooks struct {
	// KillNode terminates the node's processes and daemon (reason is for
	// reports).
	KillNode func(node, reason string)
	// Abort terminates the whole job — fired Detect after a node kill, as
	// the failure detector of the launcher would.
	Abort func(reason string)
	// CrashDaemon stops the node's daemon. restartable reports whether the
	// fault allows a supervisor to respawn it; without a supervisor (or for
	// a non-restartable crash) the loss is permanent.
	CrashDaemon func(node string, restartable bool)
	// HangDaemon stalls the node's daemon for the duration.
	HangDaemon func(node string, d sim.Duration)
	// SetLink applies latency/bandwidth factors and an outage window to the
	// a–b link (a == "*" targets all links). Zero factors leave that
	// dimension unchanged; downFor > 0 severs the link for that long.
	SetLink func(a, b string, lat, bw float64, downFor sim.Duration)
	// DelayAttach postpones the node's daemon adopting processes.
	DelayAttach func(node string, d sim.Duration)
	// DropTransport makes the node's daemon transport fail its next n
	// sends. ch selects the channel: ChanCtl (samples/updates, the
	// default), ChanBulk (trace shards), or ChanBoth. ChanSync targets the
	// PerfDB sync plane instead and is armed through SyncConfig.Faults
	// rather than this session hook, which ignores it.
	DropTransport func(node string, n int, ch string)
}

// Injector is an armed plan: it has scheduled every fault on the engine and
// records what actually fired.
type Injector struct {
	plan *Plan

	mu  sync.Mutex
	log []string
}

// Log returns the injected events in firing order, each stamped with the
// virtual time it fired — the audit trail for reports and tests.
func (in *Injector) Log() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.log...)
}

func (in *Injector) note(now sim.Time, format string, args ...any) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.log = append(in.log, fmt.Sprintf("%v %s", now, fmt.Sprintf(format, args...)))
}

// Notef appends an external event to the audit log, stamped with the
// virtual time it happened. The supervisor uses it so respawn and
// quarantine decisions appear in the same trail as the faults that
// triggered them.
func (in *Injector) Notef(now sim.Time, format string, args ...any) {
	in.note(now, format, args...)
}

// Arm schedules every fault in the plan on the engine. Hook fields left nil
// are skipped (the fault is logged as unsupported rather than panicking).
// Faults fire in virtual time, so runs are exactly reproducible.
func Arm(plan *Plan, eng *sim.Engine, h Hooks) *Injector {
	in := &Injector{plan: plan}
	for _, f := range plan.Faults {
		f := f
		eng.At(sim.Time(f.At), func() { in.fire(eng.Now(), f, plan, eng, h) })
	}
	return in
}

func (in *Injector) fire(now sim.Time, f Fault, plan *Plan, eng *sim.Engine, h Hooks) {
	switch f.Kind {
	case KillNode:
		if h.KillNode == nil {
			in.note(now, "kill-node %s: no hook, skipped", f.Node)
			return
		}
		reason := fmt.Sprintf("node %s failed", f.Node)
		h.KillNode(f.Node, reason)
		in.note(now, "kill-node %s", f.Node)
		if h.Abort != nil {
			// The failure detector notices Detect later and aborts the job:
			// MPI_Finalize is collective, so survivors can never complete.
			eng.After(plan.Detect, func() {
				h.Abort(fmt.Sprintf("job aborted: %s", reason))
				in.note(eng.Now(), "abort-job (detector: %s)", reason)
			})
		}
	case CrashDaemon:
		if h.CrashDaemon == nil {
			in.note(now, "crash-daemon %s: no hook, skipped", f.Node)
			return
		}
		h.CrashDaemon(f.Node, f.Restartable)
		if f.Restartable {
			in.note(now, "crash-daemon %s (restartable)", f.Node)
		} else {
			in.note(now, "crash-daemon %s", f.Node)
		}
	case HangDaemon:
		if h.HangDaemon == nil {
			in.note(now, "hang-daemon %s: no hook, skipped", f.Node)
			return
		}
		h.HangDaemon(f.Node, f.For)
		in.note(now, "hang-daemon %s for %v", f.Node, f.For)
	case SeverLink:
		if h.SetLink == nil {
			in.note(now, "sever-link: no hook, skipped")
			return
		}
		h.SetLink(f.Node, f.Peer, 0, 0, f.For)
		in.note(now, "sever-link %s:%s for %v", f.Node, f.Peer, f.For)
	case DegradeLink:
		if h.SetLink == nil {
			in.note(now, "degrade-link: no hook, skipped")
			return
		}
		h.SetLink(f.Node, f.Peer, f.Lat, f.BW, 0)
		in.note(now, "degrade-link %s:%s lat=%g bw=%g", f.Node, f.Peer, f.Lat, f.BW)
	case DelayAttach:
		if h.DelayAttach == nil {
			in.note(now, "delay-attach %s: no hook, skipped", f.Node)
			return
		}
		h.DelayAttach(f.Node, f.For)
		in.note(now, "delay-attach %s for %v", f.Node, f.For)
	case DropTransport:
		if h.DropTransport == nil {
			in.note(now, "drop-transport %s: no hook, skipped", f.Node)
			return
		}
		h.DropTransport(f.Node, f.N, f.Chan)
		if f.Chan != "" {
			in.note(now, "drop-transport %s n=%d chan=%s", f.Node, f.N, f.Chan)
		} else {
			in.note(now, "drop-transport %s n=%d", f.Node, f.N)
		}
	}
}

// Injectable is a daemon transport whose channels expose their wire
// injection points: frontend.TCPTransport (one per wire.Conn) and the
// in-process FlakyTransport below. ch is wire.ChanCtl or wire.ChanBulk.
type Injectable interface {
	Injection(ch string) *wire.Injection
}

// ArmDrops is the one translation of a drop-transport clause onto a report
// transport: it adds n to the drop budget of each channel the clause's
// chan= option selects (ctl by default). Budgets add, so overlapping
// clauses fail the sum of their sends on every stack. ChanSync targets the
// PerfDB sync plane instead (armed through SyncConfig.Faults) and is
// ignored here.
func ArmDrops(t Injectable, n int, ch string) {
	if ch == "" || ch == ChanCtl || ch == ChanBoth {
		t.Injection(wire.ChanCtl).AddDrops(n)
	}
	if ch == ChanBulk || ch == ChanBoth {
		t.Injection(wire.ChanBulk).AddDrops(n)
	}
}

// FlakyTransport wraps a daemon.Transport so the injector can fail sends on
// the in-process path, where there is no wire.Conn to carry the injection
// points. It holds one wire.Injection per channel — the same state machine
// the TCP and sync channels consult — so control and bulk failures are
// counted separately, mirroring the wire transport's two channels, and a
// plan can sever the trace stream while samples keep flowing — or vice
// versa. While failures remain on a channel, every report riding it errors;
// the daemon's queue for that channel absorbs the reports and replays them
// once the flakiness is spent.
type FlakyTransport struct {
	inner     daemon.Transport
	ctl, bulk *wire.Injection
}

// NewFlakyTransport wraps inner with idle injection points.
func NewFlakyTransport(inner daemon.Transport) *FlakyTransport {
	return &FlakyTransport{
		inner: inner,
		ctl:   wire.NewInjection(wire.ChanCtl),
		bulk:  wire.NewInjection(wire.ChanBulk),
	}
}

// Injection implements Injectable.
func (ft *FlakyTransport) Injection(ch string) *wire.Injection {
	if ch == wire.ChanBulk {
		return ft.bulk
	}
	return ft.ctl
}

// Report implements daemon.Transport: an injected failure on the channel
// the report rides fails it; the other channel is untouched. It keeps
// nothing: ev goes to the inner transport or nowhere.
func (ft *FlakyTransport) Report(ev session.Event) error {
	ch, _ := daemon.ChannelOf(ev.Kind)
	if ft.Injection(ch).Check() != nil {
		return fmt.Errorf("faults: injected %s transport failure", ch)
	}
	return ft.inner.Report(ev)
}
