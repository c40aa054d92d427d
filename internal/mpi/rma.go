package mpi

import (
	"fmt"

	"pperf/internal/sim"
)

// ErrUnsupported reports an MPI-2 feature the selected implementation
// personality does not provide (e.g. passive-target RMA under LAM or MPICH2,
// spawn under MPICH2 0.96p2 beta — the real gaps §5.2 works around).
type ErrUnsupported struct {
	Impl    ImplKind
	Feature string
}

func (e *ErrUnsupported) Error() string {
	return fmt.Sprintf("mpi: %s does not support %s", e.Impl, e.Feature)
}

// Lock types for passive-target synchronization.
const (
	LockExclusive = iota
	LockShared
)

// winShared is the collective state of an RMA window, shared by all ranks'
// handles.
type winShared struct {
	w      *World
	comm   *Comm
	implID int    // implementation-assigned id; may be reused after free
	unique string // tool-facing "N-M" identifier (§4.2.1)
	name   string
	buf    [][]byte // per-comm-rank exposed memory
	freed  bool

	fence rendezvous // MPI_Win_fence, MPI_Win_free

	// Active-target (PSCW) epoch state, keyed by comm rank.
	posted          map[int]map[int]bool // target → origins granted access
	expectComplete  map[int]int          // target → #origins in its post group
	completeArrived map[int]int          // target → completions received

	// Passive-target lock state, keyed by target comm rank.
	locks map[int]*lockState

	// internalComm models LAM keeping a communicator (which carries the
	// window's name) inside its MPI_Win structure; it surfaces in the
	// tool's Message hierarchy (Fig 23).
	internalComm *Comm
}

type lockState struct {
	exclusive bool
	holders   int
	waiters   sim.Cond
}

// Win is one rank's handle on an RMA window.
type Win struct {
	shared *winShared
	r      *Rank
	myRank int

	// ops are this rank's data transfers in the current epoch; spare are
	// completed ones waitMyOps took back, for issue to reuse.
	ops, spare []*rmaOp
	// startGroup is the target set of an open PSCW access epoch.
	startGroup []int
	inAccess   bool
	lockedOn   map[int]bool

	// waitFor and waitRank say which synchronization call the rank is
	// blocked in and the peer it waits on (see winWait).
	waitFor  string
	waitRank int
}

// winWait is a *Win as the description of the blocking wait its rank is in;
// sim asks for the text only when it prints a deadlock report, so a blocking
// iteration sets two fields instead of formatting a string.
type winWait Win

func (ww *winWait) String() string {
	w := (*Win)(ww)
	switch w.waitFor {
	case "MPI_Win_post":
		return fmt.Sprintf("MPI_Win_post from rank %d on window %s", w.waitRank, w.UniqueID())
	case "MPI_Win_complete":
		return fmt.Sprintf("MPI_Win_complete notices on window %s (%d/%d)",
			w.UniqueID(), w.shared.completeArrived[w.myRank], w.shared.expectComplete[w.myRank])
	}
	return fmt.Sprintf("MPI_Win_lock on rank %d of %s", w.waitRank, w.UniqueID())
}

// UniqueID returns the tool-facing window identifier ("N-M"): N is the id
// the implementation assigned (and may reuse), M makes the pair unique.
func (w *Win) UniqueID() string { return w.shared.unique }

// Name returns the user-assigned window name, or "" if unnamed.
func (w *Win) Name() string { return w.shared.name }

// Comm returns the communicator the window was created over.
func (w *Win) Comm() *Comm { return w.shared.comm }

// InternalComm returns the LAM-style communicator embedded in the window
// structure (nil for personalities that do not create one).
func (w *Win) InternalComm() *Comm { return w.shared.internalComm }

// WinCreate is MPI_Win_create: collective creation of an RMA window exposing
// size bytes at each rank. Probe args mirror C MPI: (base, size, disp_unit,
// info, comm, win) — the window handle argument is populated by the return
// probe, which is where the tool discovers new windows (§4.2.1).
func (c *Comm) WinCreate(r *Rank, size int, dispUnit int, info Info) (*Win, error) {
	f := r.beginMPI("MPI_Win_create", nil, size, dispUnit, info, c, nil)
	r.SystemCompute(c.w.Impl.CollectiveOverhead)

	// The first arrival allocates the shared state, so the implementation id
	// is assigned once; each arrival adds its memory.
	me := c.RankOf(r)
	ws := c.setup.meet(r, "MPI_Win_create", func(v any, _ bool) any {
		ws, ok := v.(*winShared)
		if !ok {
			implID, unique := c.w.allocWinID()
			ws = &winShared{
				w: c.w, comm: c, implID: implID, unique: unique,
				buf:             make([][]byte, len(c.local)),
				fence:           rendezvous{n: len(c.local)},
				posted:          map[int]map[int]bool{},
				expectComplete:  map[int]int{},
				completeArrived: map[int]int{},
				locks:           map[int]*lockState{},
			}
			if c.w.Impl.WinNameInComm {
				ws.internalComm = c.w.newComm(c.local, nil)
				ws.internalComm.name = fmt.Sprintf("win-%s-comm", unique)
			}
		}
		ws.buf[me] = make([]byte, size)
		return ws
	}).(*winShared)

	win := &Win{shared: ws, r: r, myRank: me, lockedOn: map[int]bool{}}
	r.probes.SetArg(5, win)
	r.endMPI(f)
	for _, h := range c.w.hooks {
		if h.WinCreated != nil {
			h.WinCreated(r, win)
		}
	}
	if ws.internalComm != nil && me == 0 {
		c.w.fireCommCreated(r, ws.internalComm)
	}
	return win, nil
}

// WinFree is MPI_Win_free: collective deallocation. The MPI-2 standard
// requires barrier semantics, so it carries synchronization waiting time
// (§4.2.1's rma_sync_wait includes it). Probe args: (win).
func (w *Win) Free() error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Win_free", w))
	w.waitMyOps()
	w.shared.fence.meet(r, "MPI_Win_free", nil)
	if !w.shared.freed {
		w.shared.freed = true
		w.shared.w.freeWinID(w.shared.implID)
	}
	for _, h := range w.shared.w.hooks {
		if h.WinFreed != nil {
			h.WinFreed(r, w)
		}
	}
	return nil
}

// SetName is MPI_Win_set_name (§4.2.3). Under LAM the name is stored in the
// window's internal communicator, which renames the Message-hierarchy
// resource as well (Fig 23).
func (w *Win) SetName(name string) {
	r := w.r
	f := r.beginMPI("MPI_Win_set_name", w, name)
	w.shared.name = name
	if w.shared.internalComm != nil {
		w.shared.internalComm.name = name
	}
	for _, h := range w.shared.w.hooks {
		if h.NameSet != nil {
			h.NameSet(r, w, name)
		}
	}
	r.endMPI(f)
}

// waitMyOps blocks until all transfers this rank issued in the current
// epoch have completed locally, then puts them on the spare list: each has
// fired, so no event holds it any more, and it lets go of its window and
// buffer. A rank killed while blocked never gets that far and keeps its ops.
func (w *Win) waitMyOps() {
	w.r.enterLibraryWait()
	for _, op := range w.ops {
		for !op.done {
			w.r.block("RMA transfer completion")
		}
	}
	w.r.exitLibraryWait()
	for _, op := range w.ops {
		op.win, op.data = nil, nil
	}
	w.spare = append(w.spare, w.ops...)
	w.ops = w.ops[:0]
}

// Fence is MPI_Win_fence. It usually acts as a barrier (MPI-2 standard), so
// it is a focal point for synchronization waiting time. LAM implements it
// with a visible MPI_Barrier call (hence Oned's /SyncObject/Barrier finding,
// Fig 22); MPICH2 synchronizes internally. Probe args: (assert, win).
func (w *Win) Fence(assert int) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Win_fence", assert, w))
	if w.shared.freed {
		return fmt.Errorf("mpi: MPI_Win_fence on freed window %s", w.UniqueID())
	}
	w.waitMyOps()
	if w.shared.w.Impl.FenceViaBarrier {
		return w.shared.comm.Barrier(r)
	}
	w.shared.fence.meet(r, "MPI_Win_fence", nil)
	return nil
}

// Post is MPI_Win_post: expose the window to the origin ranks in group
// (comm ranks) for one PSCW epoch. Probe args: (group, assert, win).
func (w *Win) Post(group []int, assert int) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Win_post", group, assert, w))
	r.SystemCompute(w.shared.w.Impl.CollectiveOverhead)
	me := w.myRank
	ws := w.shared
	if ws.posted[me] == nil {
		ws.posted[me] = map[int]bool{}
	}
	for _, o := range group {
		ws.posted[me][o] = true
	}
	ws.expectComplete[me] = len(group)
	// Post notices travel to origins; wake anyone blocked in Win_start.
	for _, o := range group {
		origin := ws.comm.local[o]
		lat := ws.w.MsgTime(r.Now(), r.node, origin.node, 0)
		at := r.Now().Add(lat)
		if ws.w.Tracer != nil {
			ws.w.traceEdge("post", r, origin, r.Now(), at, 0, 0, 0, true)
		}
		ws.w.Eng.At(at, func() { origin.wakeAt(at) })
	}
	return nil
}

// Start is MPI_Win_start: open an access epoch to the target ranks in
// group. The MPI-2 standard lets implementations choose whether this blocks
// until the matching MPI_Win_post calls execute; LAM's does (so winscpwsync
// finds waiting time here), MPICH2 defers blocking to MPI_Win_complete
// (§5.2.1.1). Probe args: (group, assert, win).
func (w *Win) Start(group []int, assert int) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Win_start", group, assert, w))
	r.SystemCompute(w.shared.w.Impl.CollectiveOverhead)
	w.startGroup = append([]int(nil), group...)
	w.inAccess = true
	if w.shared.w.Impl.BlockingWinStart {
		w.waitPosts()
	}
	return nil
}

// waitPosts blocks until every target in the start group has posted for us,
// consuming each grant: one MPI_Win_post admits exactly one access epoch per
// origin, so an origin racing ahead of the target waits for the next post.
func (w *Win) waitPosts() {
	me := w.myRank
	w.r.enterLibraryWait()
	w.waitFor = "MPI_Win_post"
	for _, t := range w.startGroup {
		w.waitRank = t
		for w.shared.posted[t] == nil || !w.shared.posted[t][me] {
			w.r.block((*winWait)(w))
		}
		delete(w.shared.posted[t], me)
	}
	w.r.exitLibraryWait()
}

// Complete is MPI_Win_complete: close the access epoch; blocks until the
// epoch's transfers finish (and, for non-blocking-start implementations,
// until the matching posts have happened). Probe args: (win).
func (w *Win) Complete() error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Win_complete", w))
	if !w.inAccess {
		return fmt.Errorf("mpi: MPI_Win_complete without MPI_Win_start on %s", w.UniqueID())
	}
	if !w.shared.w.Impl.BlockingWinStart {
		w.waitPosts()
	}
	w.waitMyOps()
	ws := w.shared
	for _, t := range w.startGroup {
		target := ws.comm.local[t]
		lat := ws.w.MsgTime(r.Now(), r.node, target.node, 0)
		at := r.Now().Add(lat)
		tt := t
		if ws.w.Tracer != nil {
			ws.w.traceEdge("complete", r, target, r.Now(), at, 0, 0, 0, true)
		}
		ws.w.Eng.At(at, func() {
			ws.completeArrived[tt]++
			target.wakeAt(at)
		})
	}
	w.startGroup = nil
	w.inAccess = false
	return nil
}

// WaitEpoch is MPI_Win_wait: block until all origins of the exposure epoch
// have called MPI_Win_complete. Probe args: (win).
func (w *Win) WaitEpoch() error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Win_wait", w))
	ws := w.shared
	me := w.myRank
	r.enterLibraryWait()
	w.waitFor = "MPI_Win_complete"
	for ws.completeArrived[me] < ws.expectComplete[me] {
		r.block((*winWait)(w))
	}
	r.exitLibraryWait()
	ws.completeArrived[me] = 0
	ws.expectComplete[me] = 0
	return nil
}

// Lock is MPI_Win_lock: passive-target synchronization. Unsupported by the
// LAM and MPICH2 personalities, as in 2004 (§5.2.1.1); the Reference
// personality provides it. Probe args: (lock_type, rank, assert, win).
func (w *Win) Lock(lockType, rank, assert int) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Win_lock", lockType, rank, assert, w))
	if !w.shared.w.Impl.SupportsPassiveTarget {
		return &ErrUnsupported{w.shared.w.Impl.Kind, "passive target synchronization"}
	}
	ws := w.shared
	ls := ws.locks[rank]
	if ls == nil {
		ls = &lockState{}
		ws.locks[rank] = ls
	}
	r.enterLibraryWait()
	w.waitFor, w.waitRank = "MPI_Win_lock", rank
	for ls.holders > 0 && (ls.exclusive || lockType == LockExclusive) {
		ls.waiters.Wait(r.proc, (*winWait)(w))
	}
	r.exitLibraryWait()
	ls.holders++
	ls.exclusive = lockType == LockExclusive
	w.lockedOn[rank] = true
	// Acquiring the lock costs a round trip to the target.
	target := ws.comm.local[rank]
	r.IdleWait(2 * ws.w.MsgTime(r.Now(), r.node, target.node, 0))
	return nil
}

// Unlock is MPI_Win_unlock. Per the MPI-2 standard it may not return until
// all the epoch's transfers have completed at both origin and target — the
// reason it appears in the passive-target waiting-time metric. Probe args:
// (rank, win).
func (w *Win) Unlock(rank int) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Win_unlock", rank, w))
	if !w.shared.w.Impl.SupportsPassiveTarget {
		return &ErrUnsupported{w.shared.w.Impl.Kind, "passive target synchronization"}
	}
	if !w.lockedOn[rank] {
		return fmt.Errorf("mpi: MPI_Win_unlock of rank %d without lock on %s", rank, w.UniqueID())
	}
	w.waitMyOps()
	ws := w.shared
	target := ws.comm.local[rank]
	r.IdleWait(2 * ws.w.MsgTime(r.Now(), r.node, target.node, 0))
	delete(w.lockedOn, rank)
	ls := ws.locks[rank]
	ls.holders--
	if ls.holders == 0 {
		ls.exclusive = false
		ls.waiters.Broadcast(r.Now())
	}
	return nil
}
