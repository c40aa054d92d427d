// Package faults implements deterministic fault injection for the simulated
// cluster and tool. A Plan is a seedable schedule of faults expressed in
// virtual time — node crashes, daemon crashes and hangs, link degradation,
// severed links, delayed daemon attach, transport failures — parsed from a
// compact text format (the --faults flag). Arm schedules the plan on the
// simulation engine; because everything keys off virtual time and the seeded
// RNG, a faulted run is exactly reproducible.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pperf/internal/sim"
	"pperf/internal/wire"
)

// Kind enumerates the injectable fault types.
type Kind int

const (
	// KillNode terminates every application process and the tool daemon on a
	// node at time T — the hardware-failure case. The plan's Detect timeout
	// later aborts the (now un-completable) MPI job, as a real failure
	// detector would.
	KillNode Kind = iota
	// CrashDaemon kills only the tool daemon; the application keeps running
	// unobserved (coverage loss without job loss).
	CrashDaemon
	// HangDaemon stalls the daemon for a duration; it buffers nothing while
	// hung and resumes (replaying its outbox) afterwards.
	HangDaemon
	// SeverLink takes a cluster link down for a duration; traffic queues
	// until the link returns.
	SeverLink
	// DegradeLink multiplies a link's latency and/or bandwidth factors.
	DegradeLink
	// DelayAttach postpones a daemon's adoption of its node's processes —
	// a slow tool startup; early execution goes unmeasured.
	DelayAttach
	// DropTransport makes the daemon's next n report sends fail, exercising
	// retry/backoff (TCP) or the outbox (in-process).
	DropTransport
)

var kindNames = map[Kind]string{
	KillNode:      "kill-node",
	CrashDaemon:   "crash-daemon",
	HangDaemon:    "hang-daemon",
	SeverLink:     "sever-link",
	DegradeLink:   "degrade-link",
	DelayAttach:   "delay-attach",
	DropTransport: "drop-transport",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ChanBoth is the DropTransport channel option that fails both report
// channels, wire.ChanCtl (samples and updates) and wire.ChanBulk (trace
// shards). The empty option is wire.ChanCtl, keeping pre-bulk-channel plan
// texts meaning what they always meant (shards moved to their own channel,
// so failing the control channel exercises exactly the sampling path those
// plans tested). wire.ChanSync targets the PerfDB store-sync channel (`pperf
// db push/pull`); it is interpreted by the sync client, not the in-run
// injector, which ignores it.
const ChanBoth = "both"

// Fault is one scheduled fault.
type Fault struct {
	At   sim.Duration // virtual-time offset from the start of the run
	Kind Kind
	Node string       // target node (all kinds; first link endpoint, or "*" for all links)
	Peer string       // second link endpoint (SeverLink, DegradeLink)
	For  sim.Duration // duration (HangDaemon, SeverLink, DelayAttach)
	Lat  float64      // latency multiplier (DegradeLink; 0 = unchanged)
	BW   float64      // bandwidth multiplier (DegradeLink; 0 = unchanged)
	N    int          // failure count (DropTransport)
	Chan string       // target channel (DropTransport): ctl | bulk | both ("" = ctl)
	// Restartable marks a CrashDaemon as recoverable: the front end's
	// supervisor (when the plan arms one with restarts=K) may respawn a
	// fresh daemon incarnation instead of treating the data loss as
	// permanent.
	Restartable bool
}

// Plan is a full fault schedule plus the resilience knobs it implies.
type Plan struct {
	// Seed drives every RNG the fault machinery touches (retry jitter).
	Seed uint64
	// Detect is the failure-detection timeout: how long after last contact a
	// daemon is presumed dead, and how long after a node kill the job is
	// aborted.
	Detect sim.Duration
	// Heartbeat is the daemon heartbeat interval armed by the plan.
	Heartbeat sim.Duration
	// Restarts bounds how many times the supervisor may respawn any one
	// daemon (0 = no supervisor; today's permanent-loss semantics).
	Restarts int
	Faults   []Fault
}

// Defaults for the plan knobs when the plan text doesn't set them.
const (
	DefaultDetect    = 500 * sim.Millisecond
	DefaultHeartbeat = 250 * sim.Millisecond
	DefaultSeed      = 1
)

// New returns an empty plan with default knobs — the base for
// programmatic construction.
func New() *Plan {
	return &Plan{Seed: DefaultSeed, Detect: DefaultDetect, Heartbeat: DefaultHeartbeat}
}

// Parse reads the fault-plan text format: semicolon-separated clauses.
//
//	seed=7; detect=500ms; hb=250ms;
//	t=2s kill-node node1;
//	t=1s crash-daemon node0;
//	t=1s hang-daemon node0 for=500ms;
//	t=1s sever-link node0:node1 for=1s;
//	t=1s degrade-link node0:node1 lat=10 bw=0.1;
//	t=0s delay-attach node2 for=100ms;
//	t=1.5s drop-transport node0 n=3;
//	t=1.5s drop-transport node0 n=3 chan=bulk
//
// A link endpoint pair of "*" targets every link. drop-transport's chan=
// option picks the channel to fail: ctl (samples/updates — the default),
// bulk (trace shards), both, or sync (the PerfDB store-sync channel,
// interpreted by `db push/pull` rather than the in-run injector).
// Whitespace is free; clauses may appear in any order.
func Parse(text string) (*Plan, error) {
	p := New()
	for _, clause := range strings.Split(text, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := p.parseClause(clause); err != nil {
			return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
	}
	return p, nil
}

func (p *Plan) parseClause(clause string) error {
	fields := strings.Fields(clause)
	kv := func(f, key string) (string, bool) {
		if strings.HasPrefix(f, key+"=") {
			return f[len(key)+1:], true
		}
		return "", false
	}

	// Knob clauses.
	if len(fields) == 1 {
		if v, ok := kv(fields[0], "seed"); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed: %w", err)
			}
			p.Seed = n
			return nil
		}
		if v, ok := kv(fields[0], "detect"); ok {
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("bad detect: %w", err)
			}
			p.Detect = d
			return nil
		}
		if v, ok := kv(fields[0], "hb"); ok {
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("bad hb: %w", err)
			}
			p.Heartbeat = d
			return nil
		}
		if v, ok := kv(fields[0], "restarts"); ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("bad restarts %q: want a non-negative integer", v)
			}
			p.Restarts = n
			return nil
		}
	}

	// Fault clauses: t=DUR <verb> <target> [opts...]
	if len(fields) < 3 {
		return fmt.Errorf("want t=DUR verb target")
	}
	tv, ok := kv(fields[0], "t")
	if !ok {
		return fmt.Errorf("want t=DUR first, got %q", fields[0])
	}
	at, err := time.ParseDuration(tv)
	if err != nil {
		return fmt.Errorf("bad t: %w", err)
	}
	if at < 0 {
		return fmt.Errorf("bad t %q: a fault cannot fire before the run starts", tv)
	}
	f := Fault{At: at}

	verb := fields[1]
	var found bool
	for k, name := range kindNames {
		if name == verb {
			f.Kind, found = k, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown fault %q", verb)
	}

	target := fields[2]
	switch f.Kind {
	case SeverLink, DegradeLink:
		if target == "*" {
			f.Node, f.Peer = "*", "*"
		} else {
			a, b, ok := strings.Cut(target, ":")
			if !ok || a == "" || b == "" {
				return fmt.Errorf("link target must be A:B or *, got %q", target)
			}
			f.Node, f.Peer = a, b
		}
	default:
		f.Node = target
	}

	for _, opt := range fields[3:] {
		switch {
		case strings.HasPrefix(opt, "for="):
			d, err := time.ParseDuration(opt[4:])
			if err != nil {
				return fmt.Errorf("bad for: %w", err)
			}
			f.For = d
		case strings.HasPrefix(opt, "lat="), strings.HasPrefix(opt, "bw="):
			name, val, _ := strings.Cut(opt, "=")
			v, err := strconv.ParseFloat(val, 64)
			switch {
			case err != nil:
				return fmt.Errorf("bad %s: %w", name, err)
			case !(v > 0) || math.IsInf(v, 0): // !(v > 0) also holds for NaN
				return fmt.Errorf("bad %s %q: want a finite factor above 0", name, val)
			case name == "bw":
				f.BW = v
			case v > maxLatFactor:
				return fmt.Errorf("bad lat %s: above %g; use sever-link for a link that carries nothing", val, maxLatFactor)
			default:
				f.Lat = v
			}
		case strings.HasPrefix(opt, "n="):
			v, err := strconv.Atoi(opt[2:])
			if err != nil {
				return fmt.Errorf("bad n: %w", err)
			}
			f.N = v
		case strings.HasPrefix(opt, "chan="):
			v := opt[5:]
			if v != wire.ChanCtl && v != wire.ChanBulk && v != ChanBoth && v != wire.ChanSync {
				return fmt.Errorf("bad chan %q: want ctl, bulk, both or sync", v)
			}
			f.Chan = v
		case opt == "restartable":
			f.Restartable = true
		default:
			return fmt.Errorf("unknown option %q", opt)
		}
	}

	// Per-kind requirements.
	switch f.Kind {
	case HangDaemon, SeverLink, DelayAttach:
		if f.For <= 0 {
			return fmt.Errorf("%s needs for=DUR", f.Kind)
		}
	case DegradeLink:
		if f.Lat == 0 && f.BW == 0 {
			return fmt.Errorf("degrade-link needs lat= and/or bw=")
		}
	case DropTransport:
		if f.N <= 0 {
			return fmt.Errorf("drop-transport needs n=K > 0")
		}
	}
	if f.Chan != "" && f.Kind != DropTransport {
		return fmt.Errorf("chan= only applies to drop-transport")
	}
	if f.Restartable && f.Kind != CrashDaemon {
		return fmt.Errorf("restartable only applies to crash-daemon")
	}

	p.Faults = append(p.Faults, f)
	return nil
}

// maxLatFactor bounds degrade-link's latency multiplier: far above any
// degraded link, low enough that a scaled latency stays a sim.Duration.
const maxLatFactor = 1e6

// String renders the plan back into the Parse format (canonical order:
// knobs first, faults in plan order).
func (p *Plan) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed),
		fmt.Sprintf("detect=%v", p.Detect),
		fmt.Sprintf("hb=%v", p.Heartbeat))
	if p.Restarts > 0 {
		parts = append(parts, fmt.Sprintf("restarts=%d", p.Restarts))
	}
	for _, f := range p.Faults {
		parts = append(parts, f.String())
	}
	return strings.Join(parts, "; ")
}

// String renders one fault in the Parse clause format.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v %s ", f.At, f.Kind)
	switch f.Kind {
	case SeverLink, DegradeLink:
		if f.Node == "*" {
			b.WriteString("*")
		} else {
			b.WriteString(f.Node + ":" + f.Peer)
		}
	default:
		b.WriteString(f.Node)
	}
	if f.For > 0 {
		fmt.Fprintf(&b, " for=%v", f.For)
	}
	if f.Lat != 0 {
		fmt.Fprintf(&b, " lat=%g", f.Lat)
	}
	if f.BW != 0 {
		fmt.Fprintf(&b, " bw=%g", f.BW)
	}
	if f.N != 0 {
		fmt.Fprintf(&b, " n=%d", f.N)
	}
	if f.Chan != "" {
		fmt.Fprintf(&b, " chan=%s", f.Chan)
	}
	if f.Restartable {
		b.WriteString(" restartable")
	}
	return b.String()
}
