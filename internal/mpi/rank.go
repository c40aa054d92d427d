package mpi

import (
	"fmt"

	"pperf/internal/probe"
	"pperf/internal/sim"
)

// Rank is one simulated MPI process. Application programs receive a *Rank
// and use it for computation (Compute, Call) and communication (through its
// communicators, starting from World()).
type Rank struct {
	w          *World
	proc       *sim.Proc
	global     int // world-unique process id
	rank       int // rank within its group's MPI_COMM_WORLD
	node       int
	world      *Comm
	parentComm *Comm // intercommunicator to the spawning group, if spawned
	progName   string
	probes     *probe.Process

	cpuUser sim.Duration
	cpuSys  sim.Duration
	// busyFrom/busyUntil describe an in-progress Compute/SystemCompute
	// window so samplers can read progressive CPU time mid-computation.
	busyFrom  sim.Time
	busyUntil sim.Time
	busySys   bool

	// Mailbox.
	unexpected []*message
	posted     []*Request
	// barrierReqs is the linear barrier's request array, kept between
	// barriers (see waitallRecycle).
	barrierReqs []*Request

	// Eager flow control: available flow-window bytes per destination
	// global id, and sends queued awaiting window space.
	credits      map[int]int
	pendingSends []*Request
	// inLibraryWait counts nested blocking waits inside MPI calls; while
	// nonzero, the transport is considered drained on arrival (flow-window
	// credits return immediately).
	inLibraryWait int

	finalized bool
	lost      bool // forcibly terminated (node crash / job abort)
}

// --- identity ----------------------------------------------------------

// Rank returns the process's rank in its MPI_COMM_WORLD.
func (r *Rank) Rank() int { return r.rank }

// Node returns the cluster node index the process runs on.
func (r *Rank) Node() int { return r.node }

// NodeName returns the cluster node's hostname.
func (r *Rank) NodeName() string { return r.w.Spec.Nodes[r.node].Name }

// World returns the process's MPI_COMM_WORLD.
func (r *Rank) World() *Comm { return r.world }

// Size returns the size of MPI_COMM_WORLD.
func (r *Rank) Size() int { return len(r.world.local) }

// Probes exposes the process's instrumentation state to the tool.
func (r *Rank) Probes() *probe.Process { return r.probes }

// Universe returns the World the rank belongs to.
func (r *Rank) Universe() *World { return r.w }

// --- probe.Clock implementation ----------------------------------------

// Now returns the process's local virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// CPUTime returns accumulated user CPU time.
func (r *Rank) CPUTime() sim.Duration { return r.cpuUser }

// SystemTime returns accumulated system (kernel) CPU time.
func (r *Rank) SystemTime() sim.Duration { return r.cpuSys }

// AddOverhead charges instrumentation execution cost: it consumes both wall
// clock and user CPU, modelling inserted measurement instructions.
func (r *Rank) AddOverhead(d sim.Duration) {
	r.cpuUser += d
	r.proc.Sleep(d)
}

// --- computation --------------------------------------------------------

// Compute burns d of user CPU time (and wall clock). CPU accrues
// progressively across the window so samplers observing mid-computation see
// partial progress, as a real CPU-time clock would.
func (r *Rank) Compute(d sim.Duration) {
	r.busyFrom = r.proc.Now()
	r.busyUntil = r.busyFrom.Add(d)
	r.busySys = false
	r.proc.Sleep(d)
	r.busyUntil = 0
	r.cpuUser += d
	if tr := r.w.Tracer; tr != nil {
		tr.Compute(r.probes.Name(), r.NodeName(), r.busyFrom, r.proc.Now(), false)
	}
}

// SystemCompute burns d inside system calls: wall clock and system time
// advance, but *user* CPU does not. Default tool metrics measure user CPU
// only, which is why the system-time benchmark defeats them (Table 2).
func (r *Rank) SystemCompute(d sim.Duration) {
	r.busyFrom = r.proc.Now()
	r.busyUntil = r.busyFrom.Add(d)
	r.busySys = true
	r.proc.Sleep(d)
	r.busyUntil = 0
	r.cpuSys += d
	if tr := r.w.Tracer; tr != nil {
		tr.Compute(r.probes.Name(), r.NodeName(), r.busyFrom, r.proc.Now(), true)
	}
}

// busyOverlap returns how much of an in-progress busy window has elapsed by
// time t.
func (r *Rank) busyOverlap(t sim.Time, system bool) sim.Duration {
	if r.busyUntil == 0 || r.busySys != system {
		return 0
	}
	if t > r.busyUntil {
		t = r.busyUntil
	}
	if t <= r.busyFrom {
		return 0
	}
	return t.Sub(r.busyFrom)
}

// CPUTimeAt returns the user CPU accumulated by time t, including the
// elapsed part of an in-progress computation (for samplers observing from
// event context).
func (r *Rank) CPUTimeAt(t sim.Time) sim.Duration {
	return r.cpuUser + r.busyOverlap(t, false)
}

// SystemTimeAt is CPUTimeAt for kernel time.
func (r *Rank) SystemTimeAt(t sim.Time) sim.Duration {
	return r.cpuSys + r.busyOverlap(t, true)
}

// IdleWait sleeps for d without consuming CPU (e.g. modelling an external
// event the process waits for).
func (r *Rank) IdleWait(d sim.Duration) { r.proc.Sleep(d) }

// Call executes body as a traced application procedure: entry and return
// probes fire around it and it participates in call-graph discovery. module
// is the source file the function belongs to in the Code hierarchy.
func (r *Rank) Call(module, name string, body func()) {
	f := r.w.appFunc(module, name)
	r.probes.Enter(f)
	defer r.probes.Leave(f)
	body()
}

// --- traced MPI call helpers --------------------------------------------

// beginMPI fires the entry probe of the named MPI routine (resolved through
// the personality's symbol naming) and returns the function for endMPI. args
// mirror the C signature; the probe layer carries them to the return probe,
// where an out-parameter is filled in with Probes().SetArg first.
func (r *Rank) beginMPI(name string, args ...any) *probe.Function {
	if tr := r.w.Tracer; tr != nil {
		peer, tag, bytes, obj := traceMeta(name, args)
		tr.BeginMPI(r.probes.Name(), r.NodeName(), name, r.Now(), peer, tag, bytes, obj)
	}
	f := r.w.Impl.fn(name)
	r.probes.Enter(f, args...)
	return f
}

// endMPI fires the return probe.
func (r *Rank) endMPI(f *probe.Function) {
	r.probes.Leave(f)
	if tr := r.w.Tracer; tr != nil {
		tr.EndMPI(r.probes.Name(), r.Now())
	}
}

// block suspends the process until woken; what appears in deadlock reports
// (a string or a fmt.Stringer, as sim.Proc.Wait takes it).
func (r *Rank) block(what any) { r.proc.Wait(what) }

// enterLibraryWait marks the process as blocked inside the MPI library: its
// transport drains arriving eager messages, returning their flow-window
// bytes immediately. Any already-queued undrained messages drain now.
func (r *Rank) enterLibraryWait() {
	r.inLibraryWait++
	if r.inLibraryWait == 1 {
		for _, m := range r.unexpected {
			m.returnCredit(r.Now())
		}
	}
}

func (r *Rank) exitLibraryWait() { r.inLibraryWait-- }

// wakeAt wakes the process at time t if it is blocked.
func (r *Rank) wakeAt(t sim.Time) { r.proc.WakeAt(t) }

// --- init / finalize ----------------------------------------------------

// Init performs MPI_Init: all ranks of the group synchronize before any
// proceeds. It is called automatically when a launched program starts.
func (r *Rank) Init() {
	f := r.beginMPI("MPI_Init")
	r.SystemCompute(50 * sim.Microsecond) // library startup cost
	r.world.setup.meet(r, "MPI_Init", nil)
	r.endMPI(f)
}

// Finalize performs MPI_Finalize: collective over the group. Called
// automatically at program end if the program did not call it.
func (r *Rank) Finalize() {
	if r.finalized {
		return
	}
	f := r.beginMPI("MPI_Finalize")
	r.world.fin.meet(r, "MPI_Finalize", nil)
	r.endMPI(f)
	r.finalized = true
}

// ParentComm returns the spawn-parent intercommunicator without tracing —
// for tool-side inspection (the traced application call is GetParent).
func (r *Rank) ParentComm() *Comm { return r.parentComm }

// GetParent is MPI_Comm_get_parent: the intercommunicator to the group that
// spawned this process, or nil for initially launched processes.
func (r *Rank) GetParent() *Comm {
	defer r.endMPI(r.beginMPI("MPI_Comm_get_parent"))
	return r.parentComm
}

// Lose forcibly terminates the process (node crash / job abort): its
// simulated process is killed and ProcessLost hooks fire. Returns false if
// the process had already finished (or was already lost). Must be called
// from scheduler context.
func (r *Rank) Lose(reason string) bool {
	if r.lost || !r.proc.Kill(reason) {
		return false
	}
	r.lost = true
	r.w.fireProcessLost(r, reason)
	return true
}

// Lost reports whether the process was forcibly terminated.
func (r *Rank) Lost() bool { return r.lost }

// Finished reports whether the underlying process has terminated — by
// clean exit, loss, or abort. Still-running ranks are the ones a respawned
// daemon incarnation re-attaches to.
func (r *Rank) Finished() bool { return r.proc.Done() }

// Abort terminates the process like Lose but reports an observed exit
// (ProcessExited) instead of lost data: when the launcher tears the job down
// the tool watches it happen, so the rank's collected data stays
// trustworthy. Returns false if the process had already finished or was
// already lost.
func (r *Rank) Abort(reason string) bool {
	if r.lost || !r.proc.Kill(reason) {
		return false
	}
	for _, h := range r.w.hooks {
		if h.ProcessExited != nil {
			h.ProcessExited(r)
		}
	}
	return true
}

func (r *Rank) String() string {
	return fmt.Sprintf("rank %d (%s on %s)", r.rank, r.progName, r.NodeName())
}
