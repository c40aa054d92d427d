package daemon

import (
	"fmt"
	"maps"

	"pperf/internal/datasource"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// Daemon is one node's tool daemon. Create one per cluster node with New,
// put each on the roster AttachAll wires into the world, then start sampling
// with Start.
type Daemon struct {
	name     string
	node     int
	nodeName string
	eng      *sim.Engine
	lib      *mdl.Library
	tr       Transport
	cfg      Config

	// tracer, when non-nil, makes the daemon the streaming stage of the
	// tracing subsystem: each tick it drains its node's span recorders into
	// shards and ships them through the report transport (see outbox.go).
	tracer *trace.Tracer
	pk     trace.Packer // the scratch drained rings are packed through
	// shard is the one Shard every shipped shard is drained into: a
	// Transport keeps none of it, and a queue keeps a copy (see send).
	shard trace.Shard

	// incarnation numbers successive daemons on the same node: the first
	// is 1, each supervisor respawn increments it. Transports stamp it on
	// frames so listeners can fence out stragglers from dead incarnations.
	incarnation int

	ranks []*rankCtx
	// enabled remembers every enabled metric-focus pair so processes
	// adopted later (spawn) are instrumented too.
	enabled []datasource.Pair
	// samples is the one batch every sampleRank builds into; nil after a
	// queue took the last one (see send), so the next batch is fresh.
	samples []datasource.Sample

	// sampling and beacon are the daemon's two periodic duties (see Start).
	sampling, beacon *sim.Ticker

	// Resilience state (see outbox.go).
	crashed     bool
	hungUntil   sim.Time
	attachUntil sim.Time

	// ctl and bulk queue the reports their channel could not carry (see
	// outbox.go); lostSpans and undelivered are the span-level loss
	// accounting for bulk-queue eviction and end-of-run stranding.
	ctl, bulk   queue
	lostSpans   map[string]int64
	undelivered map[string]int64
}

// rankCtx is the daemon's per-process state; it implements mdl.Target.
type rankCtx struct {
	d *Daemon
	r *mpi.Rank
	// edgesSent counts the call edges already reported to the front end: the
	// cursor into the process's edge log.
	edgesSent int
	insts     []liveInst
	exited    bool
}

// liveInst is one metric-focus pair enabled on one process: the compiled
// instance whose accumulator the instrumentation writes, plus the daemon's
// sampling cursor (the accumulator's value at the previous sample).
type liveInst struct {
	pair datasource.Pair
	mdli *mdl.Instance
	last float64
}

// mdl.Target implementation. The clock accessors use the engine's global
// time so samplers observing blocked or mid-computation processes read
// up-to-date values.
func (rc *rankCtx) Probes() *probe.Process  { return rc.r.Probes() }
func (rc *rankCtx) WallNow() sim.Time       { return rc.d.eng.Now() }
func (rc *rankCtx) CPUNow() sim.Duration    { return rc.r.CPUTimeAt(rc.d.eng.Now()) }
func (rc *rankCtx) SystemNow() sim.Duration { return rc.r.SystemTimeAt(rc.d.eng.Now()) }

// NameFor returns the daemon identity for a node — the name stamped on
// reports and used by transports and the liveness monitor.
func NameFor(nodeName string) string { return "paradynd@" + nodeName }

// New creates the daemon for one node (incarnation 1).
func New(eng *sim.Engine, node int, nodeName string, lib *mdl.Library, tr Transport, cfg Config) *Daemon {
	d := &Daemon{
		name:        NameFor(nodeName),
		node:        node,
		nodeName:    nodeName,
		eng:         eng,
		lib:         lib,
		tr:          tr,
		cfg:         cfg,
		incarnation: 1,
		ctl:         queue{limit: ctlQueueLimit},
		bulk:        queue{limit: bulkQueueLimit},
	}
	// Evicted shards' spans were already drained from their recorder, so the
	// loss is folded into the per-track OutboxLost counter later shards
	// carry to the timeline.
	d.bulk.onEvict = func(ev session.Event) {
		d.noteLostSpans(ev.Shard.Proc, int64(ev.Shard.Len()))
	}
	return d
}

// SetIncarnation overrides the daemon's incarnation number — used when the
// supervisor respawns a node's daemon so the replacement is distinguishable
// from its dead predecessor.
func (d *Daemon) SetIncarnation(n int) { d.incarnation = n }

// EnableTracing arms trace-shard streaming: the daemon drains tr's span
// recorders for its node on every tick and ships them to the front end. It
// also registers the tracer's fill hook so recorders reaching the watermark
// are drained and shipped immediately instead of waiting for the next tick.
func (d *Daemon) EnableTracing(tr *trace.Tracer) {
	d.tracer = tr
	tr.SetFillHook(d.nodeName, d.shipRecorder)
}

// Name returns the daemon's identity.
func (d *Daemon) Name() string { return d.name }

// Transport returns the transport the daemon reports through.
func (d *Daemon) Transport() Transport { return d.tr }

// Node returns the index of the cluster node the daemon serves.
func (d *Daemon) Node() int { return d.node }

// Registry is the roster of which daemon serves which node — the one table
// the world's discovery hooks, the front end's enable/disable/liveness
// fan-out and the session's fault hooks all read, so a respawn re-points
// everything with one Replace. The zero value is an empty roster.
type Registry struct {
	ds []*Daemon // attach order
}

// At returns the current daemon of the node with that index (nil if none).
func (reg *Registry) At(node int) *Daemon {
	for _, d := range reg.All() {
		if d.node == node {
			return d
		}
	}
	return nil
}

// Named returns the current daemon of the named node (nil if none).
func (reg *Registry) Named(nodeName string) *Daemon {
	for _, d := range reg.All() {
		if d.nodeName == nodeName {
			return d
		}
	}
	return nil
}

// All returns the current daemons in attach order (the roster's own slice:
// read it, do not keep or modify it). A nil roster has none.
func (reg *Registry) All() []*Daemon {
	if reg == nil {
		return nil
	}
	return reg.ds
}

// Replace installs d as its node's current daemon, in its predecessor's
// place (at the end when the node had none).
func (reg *Registry) Replace(d *Daemon) {
	for i, old := range reg.ds {
		if old.node == d.node {
			reg.ds[i] = d
			return
		}
	}
	reg.ds = append(reg.ds, d)
}

// AttachAll wires the returned roster, holding daemons (at most one per
// node; more join with Replace), into the world's resource-discovery hooks,
// including spawn support with the given method. Call once before launching
// programs. The hooks read through the roster, so discovery events always
// reach a node's live incarnation.
func AttachAll(w *mpi.World, spawn SpawnMethod, daemons ...*Daemon) *Registry {
	reg := &Registry{}
	for _, d := range daemons {
		reg.Replace(d)
	}
	if spawn == SpawnIntercept {
		w.SpawnInterceptor = func(parent *mpi.Rank, maxprocs int) sim.Duration {
			return sim.Duration(maxprocs) * interceptPerProc
		}
	}
	hooks := &mpi.Hooks{
		ProcessStarted: func(r *mpi.Rank) {
			if d := reg.At(r.Node()); d != nil {
				d.adopt(r)
			}
		},
		ProcessExited: func(r *mpi.Rank) {
			if d := reg.At(r.Node()); d != nil {
				d.processExited(r)
			}
		},
		FunctionDiscovered: func(r *mpi.Rank, f *probe.Function) {
			if d := reg.At(r.Node()); d != nil {
				d.functionDiscovered(r, f)
			}
		},
		CommCreated: func(r *mpi.Rank, c *mpi.Comm) {
			if d := reg.At(r.Node()); d != nil {
				d.commCreated(c)
			}
		},
		WinCreated: func(r *mpi.Rank, win *mpi.Win) {
			if d := reg.At(r.Node()); d != nil {
				d.winCreated(r, win)
			}
		},
		WinFreed: func(r *mpi.Rank, win *mpi.Win) {
			if d := reg.At(r.Node()); d != nil {
				d.winFreed(win)
			}
		},
		NameSet: func(r *mpi.Rank, obj any, name string) {
			if d := reg.At(r.Node()); d != nil {
				d.nameSet(obj, name)
			}
		},
		ProcessLost: func(r *mpi.Rank, reason string) {
			if d := reg.At(r.Node()); d != nil && !d.crashed {
				d.processLost(r.Probes().Name(), r.NodeName(), reason)
			}
		},
	}
	w.AddHooks(hooks)
	return reg
}

// Adopt attaches the daemon to an already-running process — the
// supervisor's re-attach path for a respawned incarnation. It reuses the
// same adoption machinery process-start hooks go through, so the new
// incarnation re-reports the process's resources (which also clears the
// front end's lost mark) and re-instruments the enables applied so far.
func (d *Daemon) Adopt(r *mpi.Rank) { d.adopt(r) }

// adopt starts managing a process: resource reports, function discovery,
// probe cost accounting, and instrumentation for already-enabled metrics.
// With the attach spawn method, adoption of spawned processes is delayed by
// the attach latency.
func (d *Daemon) adopt(r *mpi.Rank) {
	at := d.eng.Now()
	if d.cfg.Spawn == SpawnAttach && r.ParentComm() != nil {
		at = at.Add(attachLatency)
	}
	// An injected attach delay (slow daemon startup) postpones adoption
	// further; data before the attach point is simply never collected.
	if d.attachUntil > at {
		at = d.attachUntil
	}
	if at > d.eng.Now() {
		d.eng.At(at, func() { d.adoptNow(r) })
		return
	}
	d.adoptNow(r)
}

// DelayAttachUntil postpones adoption of processes that start before t —
// fault injection for a daemon that comes up late.
func (d *Daemon) DelayAttachUntil(t sim.Time) {
	if t > d.attachUntil {
		d.attachUntil = t
	}
}

func (d *Daemon) adoptNow(r *mpi.Rank) {
	rc := &rankCtx{d: d, r: r}
	d.ranks = append(d.ranks, rc)
	r.Probes().PerProbeCost = perProbeCost
	if tr := d.tracer; tr != nil {
		proc, node := r.Probes().Name(), r.NodeName()
		r.Probes().OnFire = func(fn string, _ probe.Where, n int, t sim.Time) {
			tr.ProbeFired(proc, node, fn, t, n)
		}
	}

	d.sendUpdate(datasource.Update{
		Kind: datasource.UpAddResource, Time: d.eng.Now(),
		Path: machinePath(r.NodeName(), r.Probes().Name()),
	})
	// Seed with functions already called before adoption (attach method).
	for _, f := range r.Probes().CalledFunctions() {
		rc.functionDiscovered(f)
	}
	// Apply pending metric-focus enables to the new process.
	for _, p := range d.enabled {
		d.instrumentRank(rc, p)
	}
}

func machinePath(node, proc string) string { return "/Machine/" + node + "/" + proc }

// functionDiscovered reports a function's first execution in a process the
// daemon has adopted; one it has yet to adopt (attach latency) is seeded from
// its called functions then.
func (d *Daemon) functionDiscovered(r *mpi.Rank, f *probe.Function) {
	for _, rc := range d.ranks {
		if rc.r == r {
			rc.functionDiscovered(f)
		}
	}
}

// functionDiscovered reports f under /Code and extends the instances watching
// its module. It runs once per function: a first call fires once, and
// adoption seeds from the functions called before it once.
func (rc *rankCtx) functionDiscovered(f *probe.Function) {
	rc.d.sendUpdate(datasource.Update{
		Kind: datasource.UpAddResource, Time: rc.d.eng.Now(),
		Path: "/Code/" + f.Module + "/" + f.Name,
	})
	// Extend module-watching instances (module-level Code foci pick up
	// newly discovered functions).
	for _, li := range rc.insts {
		if li.mdli.ModuleWatch() == f.Module {
			li.mdli.ExtendFunction(f.Name)
		}
	}
}

// processExited flushes a final sample of the exiting process's instances
// (programs shorter than a sampling interval would otherwise report nothing)
// and reports the exit.
func (d *Daemon) processExited(r *mpi.Rank) {
	for _, rc := range d.ranks {
		if rc.r == r {
			d.sampleRank(rc)
			rc.exited = true
		}
	}
	d.sendUpdate(datasource.Update{
		Kind: datasource.UpProcessExit, Time: d.eng.Now(),
		Proc: r.Probes().Name(),
		Path: machinePath(r.NodeName(), r.Probes().Name()),
	})
}

// sampleRank flushes one process's instances and call edges immediately. The
// batch is built in d.samples; it is never re-entered while that batch is in
// flight, because nothing a transport's Report does runs simulator events.
func (d *Daemon) sampleRank(rc *rankCtx) {
	now := d.eng.Now()
	cpu := rc.r.CPUTimeAt(now)
	batch := d.samples[:0]
	for i := range rc.insts {
		li := &rc.insts[i]
		v := li.mdli.Acc.Sample(now, cpu)
		batch = append(batch, datasource.Sample{
			Metric: li.pair.Metric,
			Focus:  li.pair.Focus,
			Proc:   rc.r.Probes().Name(),
			Time:   now,
			Delta:  v - li.last,
			Value:  v,
		})
		li.last = v
	}
	d.samples = batch
	if len(batch) > 0 && d.send(session.Event{Kind: session.EvSamples, Samples: batch}) {
		d.samples = nil
	}
	rc.flushEdges(now)
}

func (rc *rankCtx) flushEdges(now sim.Time) {
	edges := rc.r.Probes().CallEdges(rc.edgesSent)
	rc.edgesSent += len(edges)
	for _, e := range edges {
		rc.d.sendUpdate(datasource.Update{
			Kind: datasource.UpCallEdge, Time: now,
			Proc: rc.r.Probes().Name(), Caller: e[0], Callee: e[1],
		})
	}
}

func (d *Daemon) commCreated(c *mpi.Comm) {
	d.sendUpdate(datasource.Update{
		Kind: datasource.UpAddResource, Time: d.eng.Now(),
		Path:    "/SyncObject/Message/" + fmt.Sprintf("comm-%d", c.ID()),
		Display: c.Name(),
	})
}

// winCreated reports a new RMA window resource under /SyncObject/Window,
// with the N-M unique identifier collected at the MPI_Win_create return
// point (§4.2.1). Only the window's rank-0 handle produces the report, to
// avoid duplicates.
func (d *Daemon) winCreated(r *mpi.Rank, win *mpi.Win) {
	if win.Comm().RankOf(r) != 0 {
		return
	}
	d.sendUpdate(datasource.Update{
		Kind: datasource.UpAddResource, Time: d.eng.Now(),
		Path: "/SyncObject/Window/" + win.UniqueID(),
	})
	if ic := win.InternalComm(); ic != nil {
		// LAM embeds a communicator in the window (Fig 23).
		d.commCreated(ic)
	}
}

func (d *Daemon) winFreed(win *mpi.Win) {
	d.sendUpdate(datasource.Update{
		Kind: datasource.UpRetire, Time: d.eng.Now(),
		Path: "/SyncObject/Window/" + win.UniqueID(),
	})
}

func (d *Daemon) nameSet(obj any, name string) {
	switch o := obj.(type) {
	case *mpi.Comm:
		d.sendUpdate(datasource.Update{
			Kind: datasource.UpSetName, Time: d.eng.Now(),
			Path: "/SyncObject/Message/" + fmt.Sprintf("comm-%d", o.ID()), Display: name,
		})
	case *mpi.Win:
		d.sendUpdate(datasource.Update{
			Kind: datasource.UpSetName, Time: d.eng.Now(),
			Path: "/SyncObject/Window/" + o.UniqueID(), Display: name,
		})
		if ic := o.InternalComm(); ic != nil {
			d.sendUpdate(datasource.Update{
				Kind: datasource.UpSetName, Time: d.eng.Now(),
				Path: "/SyncObject/Message/" + fmt.Sprintf("comm-%d", ic.ID()), Display: name,
			})
		}
	}
}

// Enable instruments the metric-focus pair on every owned process matching
// the focus's Machine selection, and remembers the request for processes
// adopted later. Returns how many processes were instrumented.
func (d *Daemon) Enable(metricName string, focus resource.Focus) (int, error) {
	if d.lib.Metric(metricName) == nil {
		return 0, fmt.Errorf("daemon: unknown metric %q", metricName)
	}
	p := datasource.Pair{Metric: metricName, Focus: focus}
	d.enabled = append(d.enabled, p)
	n := 0
	for _, rc := range d.ranks {
		if d.instrumentRank(rc, p) {
			n++
		}
	}
	return n, nil
}

// Disable removes the metric-focus pair's instrumentation everywhere.
func (d *Daemon) Disable(metricName string, focus resource.Focus) {
	want := datasource.Pair{Metric: metricName, Focus: focus}.Canon()
	for i, p := range d.enabled {
		if p.Canon() == want {
			d.enabled = append(d.enabled[:i], d.enabled[i+1:]...)
			break
		}
	}
	for _, rc := range d.ranks {
		kept := rc.insts[:0]
		for _, li := range rc.insts {
			if li.pair.Canon() == want {
				li.mdli.Remove()
			} else {
				kept = append(kept, li)
			}
		}
		rc.insts = kept
	}
}

// instrumentRank enables one pair on one process if the focus's machine
// selection covers it.
func (d *Daemon) instrumentRank(rc *rankCtx, p datasource.Pair) bool {
	if node := p.Focus.MachineNode(); node != "" && node != rc.r.NodeName() {
		return false
	}
	if proc := p.Focus.MachineProcess(); proc != "" && proc != rc.r.Probes().Name() {
		return false
	}
	mdli, err := d.lib.Metric(p.Metric).Instantiate(rc, p.Focus)
	if err != nil {
		// Unconstrainable combinations are skipped silently, as Paradyn
		// refuses such pairs in its UI.
		return false
	}
	rc.insts = append(rc.insts, liveInst{pair: p, mdli: mdli})
	return true
}

// Start arms the daemon's periodic sampling and, when a cadence is
// configured, its heartbeat beacon. Both run until the daemon crashes or the
// simulation ends.
func (d *Daemon) Start() {
	d.sampling = d.eng.Every(d.cfg.SampleInterval, d.tick)
	if d.cfg.Heartbeat > 0 {
		d.beacon = d.eng.Every(d.cfg.Heartbeat, d.heartbeat)
	}
}

// tick samples every live instance and flushes call-graph discoveries. A
// hang-injected daemon skips the tick entirely (the data gap is the fault);
// a recovered one first replays its outbox so report order is preserved.
func (d *Daemon) tick() {
	if d.Hung() {
		return
	}
	d.flush(&d.ctl)
	n := 0
	for _, rc := range d.ranks {
		if !rc.exited {
			d.sampleRank(rc)
			n++
		}
	}
	if d.tracer != nil {
		d.tracer.DaemonSample(d.name, d.nodeName, d.eng.Now(), n)
		d.flush(&d.bulk)
		d.flushTraceShards()
	}
}

// Stats is the daemon's counter block: what it manages, what it holds for
// its channels and what it lost.
type Stats struct {
	Processes  int   // application processes adopted
	Enabled    int   // metric-focus enable requests held
	ProbeExecs int64 // probe-handler executions across its processes
	// Ctl and Bulk are the two channels' report queues (see outbox.go).
	Ctl, Bulk QueueStats
	// LostSpans and Undelivered count spans per track: drained from a
	// recorder but evicted from the bulk queue, and stranded in it when the
	// end-of-run flush gave up. Both are cumulative; nil when none.
	LostSpans, Undelivered map[string]int64
}

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() Stats {
	st := Stats{
		Processes: len(d.ranks), Enabled: len(d.enabled),
		Ctl: d.ctl.stats(), Bulk: d.bulk.stats(),
		LostSpans: maps.Clone(d.lostSpans), Undelivered: maps.Clone(d.undelivered),
	}
	for _, rc := range d.ranks {
		st.ProbeExecs += rc.r.Probes().Executions
	}
	return st
}
