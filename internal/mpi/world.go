package mpi

import (
	"fmt"

	"pperf/internal/cluster"
	"pperf/internal/probe"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// Program is the body of a simulated MPI application process.
type Program func(r *Rank, args []string)

// Hooks are resource-discovery callbacks. The performance tool's daemons
// register hooks to learn about new processes (a spawn's children among
// them), communicators, RMA windows and name changes at run time — the
// events behind the dynamic resource hierarchy of §4.2. All fields are
// optional.
type Hooks struct {
	ProcessStarted func(r *Rank)
	ProcessExited  func(r *Rank)
	// FunctionDiscovered fires the first time each distinct traced function
	// executes in a process, before its entry probes run. Every set of hooks
	// hears it: the world owns the process's single OnFirstCall slot.
	FunctionDiscovered func(r *Rank, f *probe.Function)
	CommCreated        func(r *Rank, c *Comm)
	WinCreated         func(r *Rank, w *Win)
	WinFreed           func(r *Rank, w *Win)
	// NameSet fires for MPI_Comm_set_name / MPI_Win_set_name; obj is the
	// *Comm or *Win.
	NameSet func(r *Rank, obj any, name string)
	// ProcessLost fires when a process is forcibly terminated (node crash,
	// job abort) rather than exiting cleanly. ProcessExited does NOT fire
	// for lost processes.
	ProcessLost func(r *Rank, reason string)
}

// World is a simulated MPI universe: the cluster, the implementation
// personality, the set of processes, and the program registry for spawn.
type World struct {
	Eng  *sim.Engine
	Spec *cluster.Spec
	Impl *Impl

	// Net, when non-nil, overlays fault-injected link conditions (latency
	// spikes, bandwidth collapse, severed links) on the implementation's
	// cost model. Nil (the default) costs nothing on the message path.
	Net *cluster.Network

	// FS is a tiny in-memory filesystem for things like LAM application
	// schema files named by Info keys.
	FS map[string]string

	// SpawnInterceptor models the intercept method of spawn support
	// (§4.2.2): a PMPI wrapper that replaces the spawned command with the
	// tool daemon, adding overhead to the spawn operation itself. When set,
	// its return value is charged to the spawning root.
	SpawnInterceptor func(parent *Rank, maxprocs int) sim.Duration

	// Tracer, when non-nil, receives every MPI call span, compute interval,
	// and happens-before edge the runtime generates. Nil (the default) costs
	// one pointer check per hook site and allocates nothing.
	Tracer *trace.Tracer

	programs    map[string]Program
	hooks       []*Hooks
	ranks       []*Rank
	appFuncs    map[[2]string]*probe.Function // by (module, name)
	freeMsgs    []*message                    // recycled messages, see message.recycle
	msgsMade    int                           // messages carved from slabs, see inject
	freeReqs    []*Request                    // recycled blocking-call requests, see waitRecycle
	freeNotices []*notice                     // recycled PSCW notices, see sendNotice
	nextComm    int
	winFree     []int // freed implementation window ids (reused by LAM-like impls)
	winNext     int
	winSerial   int
}

// NewWorld creates a simulated MPI universe on the given cluster with the
// given implementation personality.
func NewWorld(eng *sim.Engine, spec *cluster.Spec, impl *Impl) *World {
	return &World{
		Eng:      eng,
		Spec:     spec,
		Impl:     impl,
		FS:       map[string]string{},
		programs: map[string]Program{},
		appFuncs: map[[2]string]*probe.Function{},
	}
}

// Register adds a named program so it can be launched or spawned.
func (w *World) Register(name string, p Program) { w.programs[name] = p }

// AddHooks registers resource-discovery callbacks.
func (w *World) AddHooks(h *Hooks) { w.hooks = append(w.hooks, h) }

// Ranks returns every rank ever created, by global id.
func (w *World) Ranks() []*Rank { return w.ranks }

// MsgTime returns the transit duration of a message entering the network at
// virtual time now, applying any fault-injected link conditions. With no
// Network installed it is exactly the cost model's MsgTime.
func (w *World) MsgTime(now sim.Time, fromNode, toNode, bytes int) sim.Duration {
	if w.Net == nil {
		return w.Impl.Cost.MsgTime(fromNode, toNode, bytes)
	}
	lat, bw := w.Impl.Cost.LinkParams(fromNode, toNode)
	lat, bw, hold := w.Net.Apply(now, fromNode, toNode, lat, bw)
	return hold + lat + sim.Duration(float64(bytes)/bw*float64(sim.Second))
}

// KillNode forcibly terminates every unfinished process on the named node
// (modelling a node crash) and fires ProcessLost hooks for each. It returns
// how many processes were killed. Must be called from scheduler context.
func (w *World) KillNode(name, reason string) int {
	idx := -1
	for i, nd := range w.Spec.Nodes {
		if nd.Name == name {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	n := 0
	for _, r := range w.ranks {
		if r.node == idx && r.Lose(reason) {
			n++
		}
	}
	return n
}

// AbortAll forcibly terminates every unfinished process in the world — the
// equivalent of mpirun tearing the job down after it notices a node failure.
// Survivors are reported as observed exits (Abort), not as lost data: only
// the processes that vanished before the teardown degrade coverage. Returns
// how many processes were killed.
func (w *World) AbortAll(reason string) int {
	n := 0
	for _, r := range w.ranks {
		if r.Abort(reason) {
			n++
		}
	}
	return n
}

// fireProcessLost notifies hooks that a process was forcibly terminated.
func (w *World) fireProcessLost(r *Rank, reason string) {
	for _, h := range w.hooks {
		if h.ProcessLost != nil {
			h.ProcessLost(r, reason)
		}
	}
}

// Launch starts the named program on the given placements, returning the
// group's MPI_COMM_WORLD. The processes begin running when the engine runs.
func (w *World) Launch(prog string, placements []cluster.Placement, args []string) (*Comm, error) {
	p, ok := w.programs[prog]
	if !ok {
		return nil, fmt.Errorf("mpi: no program registered as %q", prog)
	}
	return w.startGroup(prog, p, placements, args, nil), nil
}

// LaunchN is Launch with simple block placement: ranks fill each node's CPU
// slots in order, wrapping if oversubscribed.
func (w *World) LaunchN(prog string, n int, args []string) (*Comm, error) {
	placements := make([]cluster.Placement, n)
	total := w.Spec.NumCPUs()
	for i := range placements {
		placements[i] = cluster.Placement{Rank: i, Node: w.Spec.CPUToNode(i % total)}
	}
	return w.Launch(prog, placements, args)
}

// startGroup creates the ranks of one COMM_WORLD (initial launch or spawn)
// and starts their processes at the current virtual time.
func (w *World) startGroup(progName string, p Program, placements []cluster.Placement, args []string, parent *Comm) *Comm {
	group := make([]*Rank, len(placements))
	comm := w.newComm(group, nil)
	comm.name = "MPI_COMM_WORLD"
	if len(group) == 0 {
		return comm
	}
	for i, pl := range placements {
		r := &Rank{
			w:          w,
			global:     len(w.ranks),
			rank:       i,
			node:       pl.Node,
			world:      comm,
			parentComm: parent,
			progName:   progName,
			links:      map[int]*link{},
		}
		r.probes = probe.NewProcess(fmt.Sprintf("%s{%d}", progName, r.global), r)
		r.probes.OnFirstCall = func(f *probe.Function) {
			for _, h := range w.hooks {
				if h.FunctionDiscovered != nil {
					h.FunctionDiscovered(r, f)
				}
			}
		}
		group[i] = r
		w.ranks = append(w.ranks, r)
	}
	w.fireCommCreated(group[0], comm)
	for _, r := range group {
		r := r
		r.proc = w.Eng.StartProc(r.probes.Name(), func(sp *sim.Proc) {
			sp.Val = r
			for _, h := range w.hooks {
				if h.ProcessStarted != nil {
					h.ProcessStarted(r)
				}
			}
			r.Init()
			p(r, args)
			if !r.finalized {
				r.Finalize()
			}
			for _, h := range w.hooks {
				if h.ProcessExited != nil {
					h.ProcessExited(r)
				}
			}
		})
	}
	return comm
}

// newComm allocates a communicator over the given local (and, for
// intercommunicators, remote) groups, its rendezvous sized for them.
func (w *World) newComm(local, remote []*Rank) *Comm {
	w.nextComm++
	c := &Comm{w: w, id: w.nextComm, local: local, remote: remote}
	c.setup.n, c.ops.n, c.fin.n = len(local), len(local), len(local)
	c.merge.n = len(local) + len(remote)
	return c
}

// allocWinID hands out an implementation window id, reusing freed ids when
// the personality does (this is what forces the tool's N-M unique naming).
func (w *World) allocWinID() (implID int, unique string) {
	w.winSerial++
	if w.Impl.ReusesWindowIDs && len(w.winFree) > 0 {
		implID = w.winFree[0]
		w.winFree = w.winFree[1:]
	} else {
		implID = w.winNext
		w.winNext++
	}
	return implID, fmt.Sprintf("%d-%d", implID, w.winSerial)
}

func (w *World) freeWinID(id int) {
	if w.Impl.ReusesWindowIDs {
		// Lowest-id-first reuse.
		pos := 0
		for pos < len(w.winFree) && w.winFree[pos] < id {
			pos++
		}
		w.winFree = append(w.winFree[:pos], append([]int{id}, w.winFree[pos:]...)...)
	}
}

// appFunc returns (creating once) the probe.Function for an application
// procedure in the given source module.
func (w *World) appFunc(module, name string) *probe.Function {
	key := [2]string{module, name}
	f, ok := w.appFuncs[key]
	if !ok {
		f = &probe.Function{Name: name, Module: module}
		w.appFuncs[key] = f
	}
	return f
}

// fireCommCreated notifies hooks of a new communicator resource.
func (w *World) fireCommCreated(r *Rank, c *Comm) {
	for _, h := range w.hooks {
		if h.CommCreated != nil {
			h.CommCreated(r, c)
		}
	}
}

// rendezvous is the N-party internal barrier behind every setup collective
// (MPI_Init, MPI_Win_create, MPI_Comm_spawn, MPI_Comm_dup, ...). It is
// invisible to the tool: no probes fire. A round can carry one value: the
// first arrival builds it, each arrival may add to it, and the last may finish
// it before it releases everyone.
type rendezvous struct {
	n       int // parties per round
	arrived int
	gen     int
	maxT    sim.Time
	cond    sim.Cond
	val     any
}

// meet enters r into the current round and returns the round's value once all
// n parties have arrived; everyone resumes at the latest arrival time. arrive,
// if not nil, runs first: it is given the value so far (nil for the first
// arrival) and whether r is the last to arrive, and returns the value. r takes
// the value before it blocks, because the last arrival may run on into the
// next round, and start that round's value, before the others resume.
//
// what is the routine's name, a string constant at every call site, taken
// already boxed: sim.Cond.Wait wants it as an interface, and boxing a string
// variable would allocate on every wait.
func (rv *rendezvous) meet(r *Rank, what any, arrive func(v any, last bool) any) any {
	last := rv.arrived+1 >= rv.n
	if arrive != nil {
		rv.val = arrive(rv.val, last)
	}
	v := rv.val
	if rv.n <= 1 {
		rv.val = nil
		return v
	}
	if tr := r.w.Tracer; tr != nil {
		tr.SyncArrive(rv, r.probes.Name())
	}
	gen := rv.gen
	if r.Now() > rv.maxT {
		rv.maxT = r.Now()
	}
	rv.arrived++
	if last {
		release := rv.maxT
		rv.arrived, rv.maxT, rv.val = 0, 0, nil
		rv.gen++
		if tr := r.w.Tracer; tr != nil {
			tr.SyncRelease(rv, what.(string), r.probes.Name(), release)
		}
		rv.cond.Broadcast(release)
		return v
	}
	r.enterLibraryWait()
	for gen == rv.gen {
		rv.cond.Wait(r.proc, what)
	}
	r.exitLibraryWait()
	return v
}
