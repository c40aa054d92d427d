// Package core assembles the enhanced performance tool the paper describes:
// a simulated cluster and MPI implementation, one tool daemon per node, the
// front end with its folding histograms and resource hierarchy, the MDL
// metric library (Table 1's RMA metrics included), and the Performance
// Consultant. A Session is the top-level object applications, benchmarks and
// the experiment harness drive.
package core

import (
	"fmt"

	"pperf/internal/cluster"
	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/frontend"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// Options configure a Session.
type Options struct {
	// Impl selects the MPI implementation personality (LAM, MPICH, MPICH2,
	// Reference).
	Impl mpi.ImplKind
	// Nodes and CPUsPerNode describe the cluster (defaults 3×2, the paper's
	// usual slice).
	Nodes       int
	CPUsPerNode int
	// Seed is the run's seed, handed to sim.NewEngine. Nothing draws from
	// it, so runs that differ only in Seed are identical; pperfmark records
	// it with the run (archive metadata, run description, store index).
	Seed uint64
	// Daemon configures the per-node daemons.
	Daemon *daemon.Config
	// BinWidth configures front-end histograms (default 0.2 s, Paradyn's;
	// they always hold Paradyn's 1000 bins).
	BinWidth sim.Duration
	// UserMDL is extra metric-definition source merged over the standard
	// library.
	UserMDL string
	// UseTCP routes daemon traffic over a real localhost TCP socket with
	// gob encoding instead of in-process calls.
	UseTCP bool
	// Faults arms a fault-injection plan: heartbeats and the liveness
	// monitor switch on, the network overlay is installed, and the plan's
	// faults are scheduled. Nil (the default) leaves every fault hook cold —
	// runs are byte-identical to a build without the fault subsystem.
	Faults *faults.Plan
	// Trace arms the event-tracing subsystem: every process records spans
	// into a ring buffer, daemons stream shards to the front end, and the
	// merged timeline becomes available from FrontEnd.Timeline. Nil (the
	// default) leaves every trace hook cold — runs are byte-identical to a
	// build without the trace subsystem.
	Trace *trace.Config
	// Recorder, when non-nil, is attached to the front end before launch
	// and captures the full analysis-plane event stream for offline replay
	// (see internal/session; perfdb.StreamRecorder is the implementation).
	// Nil leaves every recording hook cold.
	Recorder session.Sink
}

// Session is a live tool instance around one simulated cluster.
type Session struct {
	Eng   *sim.Engine
	Spec  *cluster.Spec
	World *mpi.World
	FE    *frontend.FrontEnd
	Lib   *mdl.Library

	// Injector is non-nil when a fault plan is armed; its Log records what
	// fired.
	Injector *faults.Injector
	// Tracer is non-nil when tracing is armed (Options.Trace).
	Tracer *trace.Tracer

	// daemons is the roster of which daemon serves which node, each carrying
	// its own transport: the world's discovery hooks, the front end's
	// fan-out, the fault hooks, Close and WireStats all read it, so a fault
	// targeting a respawned node reaches the live incarnation and its
	// transport.
	daemons  *daemon.Registry
	listener *frontend.Listener
	launched bool

	// Respawn support (supervisor runs only).
	dcfg daemon.Config
	plan *faults.Plan
}

// NewSession builds the cluster, world, front end and daemons.
func NewSession(opts Options) (*Session, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 3
	}
	if opts.CPUsPerNode == 0 {
		opts.CPUsPerNode = 2
	}
	dcfg := daemon.DefaultConfig()
	if opts.Daemon != nil {
		dcfg = *opts.Daemon
	}
	plan := opts.Faults
	if plan != nil && plan.Heartbeat > 0 {
		dcfg.Heartbeat = plan.Heartbeat
	}

	lib, err := mdl.NewLibraryWithStd(opts.UserMDL)
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine(opts.Seed)
	spec := cluster.DefaultSpec(opts.Nodes, opts.CPUsPerNode)
	world := mpi.NewWorld(eng, spec, mpi.NewImpl(opts.Impl))
	if plan != nil {
		world.Net = cluster.NewNetwork() // nil otherwise: zero-cost fast path
	}

	fe := frontend.New()
	fe.BinWidth = opts.BinWidth
	if opts.Recorder != nil {
		opts.Recorder.SetHistogram(0, opts.BinWidth) // 0: the default bin count
		fe.SetRecorder(opts.Recorder)
	}

	s := &Session{
		Eng: eng, Spec: spec, World: world, FE: fe, Lib: lib, dcfg: dcfg, plan: plan,
		daemons: daemon.AttachAll(world, dcfg.Spawn),
	}
	fe.SetDaemons(s.daemons)
	if opts.Trace != nil {
		s.Tracer = trace.New(opts.Trace)
		world.Tracer = s.Tracer
		fe.EnableTrace()
	}

	if opts.UseTCP {
		l, err := fe.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.listener = l
	}
	for node := range spec.Nodes {
		if _, err := s.startDaemon(node, 1); err != nil {
			s.Close()
			return nil, err
		}
	}
	installTagDiscovery(s)
	if plan != nil {
		s.armFaults(plan)
	}
	return s, nil
}

// armFaults switches on the resilience machinery and schedules the plan.
func (s *Session) armFaults(plan *faults.Plan) {
	if plan.Heartbeat > 0 {
		s.FE.StartLiveness(s.Eng, plan.Heartbeat, plan.Detect)
	}
	s.Injector = faults.Arm(plan, s.Eng, faults.Hooks{
		KillNode: func(node, reason string) {
			s.World.KillNode(node, reason)
			if d := s.daemons.Named(node); d != nil {
				d.Crash() // the node's daemon dies with it
			}
			if sv := s.FE.Supervisor(); sv != nil {
				sv.MarkUnrestartable(node) // hardware is gone; nothing to re-attach to
			}
		},
		Abort: func(reason string) { s.World.AbortAll(reason) },
		CrashDaemon: func(node string, restartable bool) {
			if d := s.daemons.Named(node); d != nil {
				d.Crash()
			}
			if sv := s.FE.Supervisor(); sv != nil {
				if restartable {
					// Direct notification: covers hb=0 plans, where the
					// liveness monitor can never observe the silence.
					sv.NoteDown(node)
				} else {
					sv.MarkUnrestartable(node)
				}
			}
		},
		HangDaemon: func(node string, dur sim.Duration) {
			if d := s.daemons.Named(node); d != nil {
				d.Hang(dur)
			}
		},
		SetLink: func(a, b string, lat, bw float64, downFor sim.Duration) {
			st := cluster.LinkState{LatFactor: lat, BWFactor: bw}
			if downFor > 0 {
				st.DownUntil = s.Eng.Now().Add(downFor)
			}
			if a == "*" {
				s.World.Net.SetAll(st)
				return
			}
			if da, db := s.daemons.Named(a), s.daemons.Named(b); da != nil && db != nil {
				s.World.Net.SetLink(da.Node(), db.Node(), st)
			}
		},
		DelayAttach: func(node string, dur sim.Duration) {
			if d := s.daemons.Named(node); d != nil {
				d.DelayAttachUntil(s.Eng.Now().Add(dur))
			}
		},
		DropTransport: func(node string, n int, ch string) {
			if d := s.daemons.Named(node); d != nil {
				faults.ArmDrops(d.Transport().(faults.Injectable), n, ch)
			}
		},
	})
	if plan.Restarts > 0 {
		// The supervisor is constructed only when the plan budgets
		// restarts; every other run keeps a nil supervisor pointer and
		// today's permanent-loss semantics, byte for byte.
		frontend.NewSupervisor(s.FE, s.Eng, plan.Restarts, plan.Seed, s.respawnDaemon,
			func(now sim.Time, format string, args ...any) { s.Injector.Notef(now, format, args...) })
	}
}

// startDaemon builds incarnation inc of node idx's daemon and puts it on the
// roster in its predecessor's place, re-pointing world hooks, front-end
// fan-out and fault hooks at it. Its transport is a fresh TCP dial (seq
// spaces stamped with inc, jitter per node and incarnation) that closes the
// predecessor's, or else the front end, behind the injector's failure wrapper
// (so injectable, as a TCP one is) when a plan is armed. A failed dial leaves
// the roster as it was.
func (s *Session) startDaemon(idx, inc int) (*daemon.Daemon, error) {
	node := s.Spec.Nodes[idx].Name
	var tr daemon.Transport = s.FE
	switch {
	case s.listener != nil:
		cfg := wire.DefaultConfig()
		if s.plan != nil {
			cfg.Seed = s.plan.Seed + uint64(idx) // per node and, for a respawn, per incarnation
			if inc > 1 {
				cfg.Seed += uint64(inc) << 16
			}
		}
		t, err := frontend.DialTransportRetry(s.listener.Addr(), daemon.NameFor(node), uint64(inc), cfg)
		if err != nil {
			return nil, err
		}
		if old := s.daemons.At(idx); old != nil {
			closeTransport(old) // dead incarnation's channels: fail fast, free the sockets
		}
		tr = t
	case s.plan != nil:
		tr = faults.NewFlakyTransport(s.FE)
	}
	d := daemon.New(s.Eng, idx, node, s.Lib, tr, s.dcfg)
	d.SetIncarnation(inc)
	if s.Tracer != nil {
		// Registering the fill hook also displaces a dead incarnation's, so
		// shards resume on the new bulk channel.
		d.EnableTracing(s.Tracer)
	}
	s.daemons.Replace(d)
	return d, nil
}

// closeTransport closes d's transport if it is a TCP one.
func closeTransport(d *daemon.Daemon) {
	if t, ok := d.Transport().(*frontend.TCPTransport); ok {
		t.Close()
	}
}

// respawnDaemon is the supervisor's RespawnFunc: it crashes the node's
// previous incarnation (a supervisor kills a wedged process before starting
// its replacement), starts incarnation inc and re-attaches it to the node's
// still-running application processes. Adoption re-reports the node's
// resources, which is what clears the front end's lost marks and recovers
// Coverage. The supervisor starts the daemon itself after resynchronization
// succeeds.
func (s *Session) respawnDaemon(node string, inc int) (*daemon.Daemon, error) {
	old := s.daemons.Named(node)
	if old == nil {
		return nil, fmt.Errorf("core: respawn on unknown node %q", node)
	}
	old.Crash()
	d, err := s.startDaemon(old.Node(), inc)
	if err != nil {
		return nil, fmt.Errorf("core: respawn dial: %w", err)
	}
	// Lost or finished ranks stay with their (retired) records.
	for _, r := range s.World.Ranks() {
		if r.Node() == d.Node() && !r.Lost() && !r.Finished() {
			d.Adopt(r)
		}
	}
	return d, nil
}

// Register adds a program to the world's registry.
func (s *Session) Register(name string, prog mpi.Program) { s.World.Register(name, prog) }

// Launch starts np copies of a registered program with block placement and
// begins daemon sampling.
func (s *Session) Launch(prog string, np int, args []string) error {
	if _, err := s.World.LaunchN(prog, np, args); err != nil {
		return err
	}
	s.startSampling()
	return nil
}

// LaunchPlacements starts a program on explicit placements (from mpirun
// parsing).
func (s *Session) LaunchPlacements(prog string, placements []cluster.Placement, args []string) error {
	if _, err := s.World.Launch(prog, placements, args); err != nil {
		return err
	}
	s.startSampling()
	return nil
}

func (s *Session) startSampling() {
	if s.launched {
		return
	}
	s.launched = true
	for _, d := range s.daemons.All() {
		d.Start()
	}
}

// Enable turns on a metric-focus pair and returns its series.
func (s *Session) Enable(metricName string, focus resource.Focus) (*datasource.Series, error) {
	return s.FE.EnableMetric(metricName, focus)
}

// MustEnable is Enable for known-good pairs (panics on error).
func (s *Session) MustEnable(metricName string, focus resource.Focus) *datasource.Series {
	sr, err := s.Enable(metricName, focus)
	if err != nil {
		panic(fmt.Sprintf("core: enable %s %s: %v", metricName, focus, err))
	}
	return sr
}

// Run executes the simulation to completion.
func (s *Session) Run() error {
	err := s.Eng.Run()
	s.flushTrace()
	return err
}

// flushTrace ships spans recorded after each daemon's last sampling tick
// (the end-of-run flush), then folds each running daemon's span-loss counts
// into the timeline outside the transport, track by track in recorder order,
// wherever the timeline is behind: ring drops and bulk-queue evictions as one
// spans-free shard (the shards that would have carried them are stranded too),
// spans stranded undelivered as a note, so exporters can flag an incomplete
// trace. A bulk channel still down at exit thus hides no loss. A crashed
// daemon flushed nothing: what it held is the liveness monitor's loss. A no-op
// when tracing is not armed.
func (s *Session) flushTrace() {
	if s.Tracer == nil {
		return
	}
	for _, d := range s.daemons.All() {
		d.FlushTrace()
	}
	tl := s.FE.Timeline()
	var sh trace.Shard // each stamp's, which Report keeps none of
	for _, d := range s.daemons.All() {
		if d.Crashed() {
			continue
		}
		st := d.Stats()
		for _, rec := range s.Tracer.Recorders(s.Spec.Nodes[d.Node()].Name) {
			proc, lost := rec.Proc(), st.LostSpans[rec.Proc()]
			have := tl.Stats(proc)
			if have.Dropped < rec.Dropped() || have.OutboxLost < lost {
				sh = trace.Shard{Daemon: d.Name(), Proc: proc, Node: rec.Node(), Dropped: rec.Dropped(), OutboxLost: lost}
				s.FE.Report(session.Event{Kind: session.EvShard, Shard: &sh})
			}
			if n := st.Undelivered[proc]; have.Undelivered < n {
				s.FE.NoteUndelivered(proc, n)
			}
		}
	}
}

// Close releases TCP resources (no-op for in-process transport).
func (s *Session) Close() {
	for _, d := range s.daemons.All() {
		closeTransport(d)
	}
	if s.listener != nil {
		s.listener.Close()
	}
}

// WireStats aggregates the session's wire-plane resilience counters per
// channel (wire.ChanCtl, wire.ChanBulk), reading each live daemon's transport
// off the roster in node order. TCP sessions merge every daemon transport's
// sender counters with the listener's receive-side dedupe accounting;
// in-process fault runs have no wire, so they report their injection points'
// drop counts. One uniform wire.Stats block per channel.
func (s *Session) WireStats() map[string]wire.Stats {
	out := map[string]wire.Stats{}
	add := func(ch string, st wire.Stats) {
		cur := out[ch]
		cur.Add(st)
		out[ch] = cur
	}
	for _, ch := range []string{wire.ChanCtl, wire.ChanBulk} {
		for _, d := range s.daemons.All() {
			switch t := d.Transport().(type) {
			case *frontend.TCPTransport:
				add(ch, t.Stats(ch)) // never Injection(ChanBulk), which dials bulk
			case *faults.FlakyTransport:
				add(ch, wire.Stats{InjectedDrops: t.Injection(ch).Dropped()})
			}
		}
		if s.listener != nil {
			ls := s.listener.WireStats(ch)
			// Sender side already counts acknowledged frames; take only the
			// receiver-side accounting from the listener.
			ls.Frames = 0
			add(ch, ls)
		}
	}
	return out
}

// ProbeExecutions totals probe executions across daemons.
func (s *Session) ProbeExecutions() int64 {
	var n int64
	for _, d := range s.daemons.All() {
		n += d.Stats().ProbeExecs
	}
	return n
}
