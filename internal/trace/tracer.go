package trace

import (
	"pperf/internal/sim"
)

// Tracer is the per-run recording hub. The MPI runtime, probe layer, and
// daemons call its hook methods (from simulation-engine context, so no
// locking); it routes each record into the owning track's ring Recorder,
// assigns the global Seq order, and notifies observers (the MPE renderer
// feeds off the same stream).
//
// A nil *Tracer means tracing is disabled; every call site guards with a
// single pointer check so the disabled hot path allocates nothing.
type Tracer struct {
	cfg       Config
	seq       uint64
	flowSeq   uint64
	recs      map[string]*Recorder
	order     []string // track creation order
	open      map[string][]Span
	syncs     map[any]*syncGroup
	observers []func(Span)

	// fillHooks maps a node to its daemon's drain callback: when a recorder
	// on that node reaches the fill watermark the daemon ships it over the
	// bulk channel immediately instead of waiting for the next tick.
	fillHooks map[string]func(*Recorder)
	watermark int
	filling   bool // reentrancy guard: a drain callback must not trigger itself
}

type syncGroup struct {
	procs []string
}

// New returns a Tracer with the given config (nil means defaults).
func New(cfg *Config) *Tracer {
	t := &Tracer{
		recs:      make(map[string]*Recorder),
		open:      make(map[string][]Span),
		syncs:     make(map[any]*syncGroup),
		fillHooks: make(map[string]func(*Recorder)),
	}
	if cfg != nil {
		t.cfg = *cfg
	}
	capacity := t.cfg.RingCapacity
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	switch {
	case t.cfg.FlushWatermark < 0:
		t.watermark = capacity + 1 // unreachable: eager shipping disabled
	case t.cfg.FlushWatermark == 0:
		t.watermark = capacity / 2
	default:
		t.watermark = t.cfg.FlushWatermark
	}
	return t
}

// SetFillHook registers the drain callback for one node's recorders. The
// daemon owning the node installs it when bulk streaming is available; the
// tracer invokes it (from engine context) whenever a recorder on the node
// reaches the fill watermark.
func (t *Tracer) SetFillHook(node string, fn func(*Recorder)) {
	t.fillHooks[node] = fn
}

// AddObserver registers a callback invoked synchronously for every recorded
// span, in record order.
func (t *Tracer) AddObserver(fn func(Span)) {
	t.observers = append(t.observers, fn)
}

// rec returns (creating on first use) the recorder for a track.
func (t *Tracer) rec(proc, node string) *Recorder {
	r := t.recs[proc]
	if r == nil {
		r = NewRecorder(proc, node, t.cfg.RingCapacity)
		t.recs[proc] = r
		t.order = append(t.order, proc)
	}
	return r
}

// record stamps the global sequence number, stores the span, and notifies
// observers.
func (t *Tracer) record(proc, node string, s Span) {
	s.Seq = t.seq
	t.seq++
	r := t.rec(proc, node)
	r.Record(s)
	s.Proc = r.proc
	s.Node = r.node
	for _, fn := range t.observers {
		fn(s)
	}
	if fn := t.fillHooks[r.node]; fn != nil && r.n >= t.watermark && !t.filling {
		t.filling = true
		fn(r)
		t.filling = false
	}
}

// NewFlow allocates a flow id linking a matched pair for exporters.
func (t *Tracer) NewFlow() uint64 {
	t.flowSeq++
	return t.flowSeq
}

// BeginMPI opens an MPI call span. Calls nest: the span closes at the
// matching EndMPI. peer/tag/bytes/obj carry the call's argument metadata
// (zero values when inapplicable).
func (t *Tracer) BeginMPI(proc, node, fn string, at sim.Time, peer string, tag, bytes int, obj string) {
	t.open[proc] = append(t.open[proc], Span{
		Kind:  MPISpan,
		Node:  node,
		Name:  fn,
		Start: at,
		Peer:  peer,
		Tag:   tag,
		Bytes: bytes,
		Obj:   obj,
	})
}

// EndMPI closes the innermost open MPI call span on proc.
func (t *Tracer) EndMPI(proc string, at sim.Time) {
	stack := t.open[proc]
	if len(stack) == 0 {
		return
	}
	s := stack[len(stack)-1]
	t.open[proc] = stack[:len(stack)-1]
	s.End = at
	s.Depth = len(stack) - 1
	t.record(proc, s.Node, s)
}

// Compute records an application compute interval (system=true for
// library/system CPU time).
func (t *Tracer) Compute(proc, node string, start, end sim.Time, system bool) {
	name := "compute"
	if system {
		name = "system"
	}
	// Depth mirrors MPI nesting so compute inside a library call (e.g. the
	// MPI_Init startup cost) stays off the depth-0 critical-path track.
	t.record(proc, node, Span{Kind: ComputeSpan, Name: name, Start: start, End: end, Depth: len(t.open[proc])})
}

// ProbeFired records a dynamic-instrumentation firing: n handlers ran at
// an instrumentation point of fn.
func (t *Tracer) ProbeFired(proc, node, fn string, at sim.Time, n int) {
	t.record(proc, node, Span{Kind: ProbeEvent, Name: fn, Start: at, End: at, Tag: n})
}

// DaemonSample records one sampling tick on a daemon track (n = processes
// sampled).
func (t *Tracer) DaemonSample(daemon, node string, at sim.Time, n int) {
	t.record(daemon, node, Span{Kind: DaemonSample, Name: "sample", Start: at, End: at, Tag: n})
}

// Transport records transport activity ("enqueue", "replay", "shard", ...)
// on a daemon track.
func (t *Tracer) Transport(daemon, node, what string, at sim.Time) {
	t.record(daemon, node, Span{Kind: TransportEvent, Name: what, Start: at, End: at})
}

// Edge records a happens-before edge on the destination track. kind names
// the mechanism ("msg", "rendezvous", "credit", "sync", "post", "complete",
// "rma", "spawn"); wait marks edges the destination actually blocked on
// (the ones critical-path analysis follows); flow links the pair for
// exporters (0 = none).
func (t *Tracer) Edge(kind, fromProc, toProc, toNode string, fromT, toT sim.Time, tag, bytes int, flow uint64, wait bool) {
	t.record(toProc, toNode, Span{
		Kind:  EdgeEvent,
		Name:  kind,
		Start: fromT,
		End:   toT,
		Peer:  fromProc,
		Tag:   tag,
		Bytes: bytes,
		Flow:  flow,
		Wait:  wait,
	})
}

// SyncArrive notes that proc reached the internal synchronization point
// identified by key (any stable pointer) and will block until released.
func (t *Tracer) SyncArrive(key any, proc string) {
	g := t.syncs[key]
	if g == nil {
		g = &syncGroup{}
		t.syncs[key] = g
	}
	g.procs = append(g.procs, proc)
}

// SyncRelease emits releaser→waiter wait edges for every process parked at
// key and clears the group. what names the synchronization ("barrier",
// "coll", "init", ...).
func (t *Tracer) SyncRelease(key any, what, releaser string, at sim.Time) {
	g := t.syncs[key]
	if g == nil {
		return
	}
	delete(t.syncs, key)
	for _, p := range g.procs {
		if p == releaser {
			continue
		}
		// The waiter's node is wherever its recorder lives; arrivals always
		// follow a BeginMPI on the same proc, so the recorder exists.
		node := ""
		if r := t.recs[p]; r != nil {
			node = r.node
		}
		t.record(p, node, Span{
			Kind:  EdgeEvent,
			Name:  what,
			Start: at,
			End:   at,
			Peer:  releaser,
			Wait:  true,
		})
	}
}

// Recorders returns the recorders for tracks on the given node, in track
// creation order ("" returns all).
func (t *Tracer) Recorders(node string) []*Recorder {
	var out []*Recorder
	for _, p := range t.order {
		r := t.recs[p]
		if node == "" || r.node == node {
			out = append(out, r)
		}
	}
	return out
}

// Recorder returns the recorder for one track, or nil.
func (t *Tracer) Recorder(proc string) *Recorder { return t.recs[proc] }

// Procs returns all track names in creation order.
func (t *Tracer) Procs() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}
