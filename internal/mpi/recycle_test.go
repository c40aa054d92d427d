package mpi_test

import (
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/faults"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// rankTarget instruments a rank with MDL metrics.
type rankTarget struct{ r *mpi.Rank }

func (t rankTarget) Probes() *probe.Process  { return t.r.Probes() }
func (t rankTarget) WallNow() sim.Time       { return t.r.Now() }
func (t rankTarget) CPUNow() sim.Duration    { return t.r.CPUTime() }
func (t rankTarget) SystemNow() sim.Duration { return t.r.SystemTimeAt(t.r.Now()) }

// pairAllocs runs send on rank 1 and returns the allocations per call of
// recv on rank 0 — and so of one pair, the sender's share included — the
// worse of a half where the receiver blocks first (posted-first matches)
// and one where the sender has run ahead (unexpected-first). The named MDL
// metrics are instantiated whole-program on both ranks first.
func pairAllocs(t *testing.T, rounds int, recv, send func(c *mpi.Comm, r *mpi.Rank), metrics []string) float64 {
	t.Helper()
	impl := mpi.NewImpl(mpi.LAM)
	impl.Cost.EagerThreshold = 128
	w := mpi.NewWorld(sim.NewEngine(7), cluster.DefaultSpec(1, 2), impl)
	var worst float64
	w.Register("main", func(r *mpi.Rank, _ []string) {
		c := r.World()
		if r.Rank() == 1 {
			for i := 0; i < 2*(rounds+1); i++ {
				send(c, r)
			}
			return
		}
		call := func() { recv(c, r) }
		worst = testing.AllocsPerRun(rounds, call)
		r.Compute(sim.Second) // let the sender run ahead
		if r.UnexpectedLen() == 0 {
			t.Error("second half should find its messages already queued")
		}
		worst = max(worst, testing.AllocsPerRun(rounds, call))
	})
	if _, err := w.LaunchN("main", 2, nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Ranks() {
		for _, name := range metrics {
			if _, err := mdl.StdLib().Metric(name).Instantiate(rankTarget{r}, resource.WholeProgram()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return worst
}

// The allocation budget of the simulated message path: once the world's
// free lists are warm a blocking pair allocates nothing — not its requests
// (recycled), its message and events (recycled), its argument vectors
// (AnySource is boxed once) nor its wait descriptions — with or without MDL
// metrics on the point-to-point routines; nor does a traced application
// call.
func TestMessagePathAllocationBudget(t *testing.T) {
	const rounds = 200
	const eager, rendezvous = 8, 200 // bytes, against an eager threshold of 128
	sendTo0 := func(bytes int) func(c *mpi.Comm, r *mpi.Rank) {
		return func(c *mpi.Comm, r *mpi.Rank) { c.Send(r, nil, bytes, mpi.Byte, 0, 0) }
	}
	exchange := func(c *mpi.Comm, r *mpi.Rank) {
		peer := 1 - r.Rank()
		c.Sendrecv(r, nil, eager, mpi.Byte, peer, 0, nil, eager, mpi.Byte, peer, 0)
	}
	pairs := []struct {
		name       string
		recv, send func(c *mpi.Comm, r *mpi.Rank)
	}{
		{"eager Send/Recv", func(c *mpi.Comm, r *mpi.Rank) { c.Recv(r, nil, eager, mpi.Byte, 1, 0) }, sendTo0(eager)},
		{"rendezvous Send/Recv", func(c *mpi.Comm, r *mpi.Rank) { c.Recv(r, nil, rendezvous, mpi.Byte, 1, 0) }, sendTo0(rendezvous)},
		{"AnySource Recv", func(c *mpi.Comm, r *mpi.Rank) { c.Recv(r, nil, eager, mpi.Byte, mpi.AnySource, 0) }, sendTo0(eager)},
		{"Sendrecv", exchange, exchange},
	}
	for _, metrics := range [][]string{nil, {"msgs_sent", "msgs_recv", "msg_bytes_sent", "msg_bytes_recv", "sync_wait_inclusive"}} {
		for _, p := range pairs {
			if n := pairAllocs(t, rounds, p.recv, p.send, metrics); n != 0 {
				t.Errorf("%s with metrics %v: %v allocs per pair, want 0", p.name, metrics, n)
			}
		}
	}

	w := mpi.NewWorld(sim.NewEngine(7), cluster.DefaultSpec(1, 1), mpi.NewImpl(mpi.LAM))
	var perCall float64
	w.Register("main", func(r *mpi.Rank, _ []string) {
		body := func() {}
		perCall = testing.AllocsPerRun(rounds, func() { r.Call("app.c", "work", body) })
	})
	if _, err := w.LaunchN("main", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if perCall != 0 {
		t.Errorf("Rank.Call: %v allocs, want 0", perCall)
	}
}

// runChecked runs the suite program with 40 iterations under kind, calling
// check every 50 µs of virtual time and once at the end. It returns the
// number of checks and the first error; watch, if not nil, is handed the
// world before the launch.
func runChecked(t *testing.T, name string, kind mpi.ImplKind, watch func(w *mpi.World), check func(w *mpi.World) error) (checks int, err error) {
	t.Helper()
	e := pperfmark.Get(name)
	p := e.Defaults
	p.Iterations = 40
	w := mpi.NewWorld(sim.NewEngine(7), cluster.DefaultSpec(3, 2), mpi.NewImpl(kind))
	if watch != nil {
		watch(w)
	}
	w.Register(name, e.Make(p))
	if _, err := w.LaunchN(name, p.Procs, nil); err != nil {
		t.Fatal(err)
	}
	w.Eng.Every(50*sim.Microsecond, func() {
		if err == nil {
			err = check(w)
		}
		checks++
	})
	if runErr := w.Eng.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err == nil {
		err = check(w)
	}
	return checks, err
}

// killNode1 runs prog on two ranks, one per node, kills node1 at 500 ms and
// lets the failure detector abort the job.
func killNode1(t *testing.T, impl *mpi.Impl, prog mpi.Program) *mpi.World {
	t.Helper()
	w := mpi.NewWorld(sim.NewEngine(7), cluster.DefaultSpec(2, 1), impl)
	w.Register("main", prog)
	if _, err := w.LaunchN("main", 2, nil); err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("t=500ms kill-node node1")
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm(plan, w.Eng, faults.Hooks{
		KillNode: func(node, reason string) { w.KillNode(node, reason) },
		Abort:    func(reason string) { w.AbortAll(reason) },
	})
	if err := w.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

// A request goes back to the free list only once nothing can reach it:
// throughout runs of an eager, a halo-exchange, a rendezvous, a barrier and
// a fence program under each personality, no request on the list is a posted
// receive, a send waiting for window space or the sender of a queued
// rendezvous notice. And a rank killed while blocked in MPI_Recv, or in
// MPI_Barrier's MPI_Waitall, keeps its posted request.
func TestRecycledRequestsAreUnreachable(t *testing.T) {
	for _, kind := range []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2} {
		names := []string{"small-messages", "sstwod", "big-message", "random-barrier"}
		if kind == mpi.LAM {
			names = append(names, "winfence-sync") // only LAM's fence is a barrier
		}
		for _, name := range names {
			free := 0
			checks, err := runChecked(t, name, kind, nil, func(w *mpi.World) error {
				free = w.FreeRequests()
				return w.CheckFreeRequests()
			})
			if err != nil || checks < 100 || free == 0 {
				t.Errorf("%s under %v: %d checks, %d requests recycled: %v", name, kind, checks, free, err)
			}
		}
	}

	for _, blocked := range []struct {
		routine string
		call    func(c *mpi.Comm, r *mpi.Rank)
	}{
		{"MPI_Recv", func(c *mpi.Comm, r *mpi.Rank) { c.Recv(r, nil, 4, mpi.Byte, 0, 99) }}, // never sent
		{"MPI_Barrier", func(c *mpi.Comm, r *mpi.Rank) { c.Barrier(r) }},                    // rank 0 arrives at 2 s
	} {
		w := killNode1(t, mpi.NewImpl(mpi.LAM), func(r *mpi.Rank, _ []string) {
			c := r.World()
			peer := 1 - r.Rank()
			for i := 0; i < 10; i++ {
				c.Sendrecv(r, nil, 4, mpi.Byte, peer, 0, nil, 4, mpi.Byte, peer, 0)
				c.Barrier(r)
			}
			if r.Rank() == 1 {
				blocked.call(c, r) // blocks until node1 dies
			} else {
				r.Compute(2 * sim.Second)
				c.Barrier(r)
			}
		})
		r1 := w.Ranks()[1]
		if !r1.Lost() || r1.PostedLen() != 1 {
			t.Fatalf("rank 1 lost: %v, with %d posted receives; want lost in its %s", r1.Lost(), r1.PostedLen(), blocked.routine)
		}
		if w.IsRecycled(r1.FirstPosted()) || w.FreeRequests() == 0 {
			t.Errorf("%s: killed rank's request recycled: %v (%d on the free list)", blocked.routine, w.IsRecycled(r1.FirstPosted()), w.FreeRequests())
		}
		if err := w.CheckFreeRequests(); err != nil {
			t.Errorf("%s: %v", blocked.routine, err)
		}
	}
}

// The RMA twin: an op goes on its window's spare list only once it has
// fired. Throughout runs of the fence and halo programs under each
// personality, every spare op is a bare done mark — not still scheduled,
// not in the epoch's list — and a rank killed with a transfer in flight
// keeps it.
func TestRecycledRMAOpsAreUnreachable(t *testing.T) {
	for _, kind := range []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2} {
		for _, name := range []string{"winfence-sync", "oned", "allcount"} {
			var wins []*mpi.Win
			spare := 0
			checks, err := runChecked(t, name, kind, func(w *mpi.World) {
				w.AddHooks(&mpi.Hooks{WinCreated: func(_ *mpi.Rank, win *mpi.Win) { wins = append(wins, win) }})
			}, func(*mpi.World) error {
				spare = 0
				for _, win := range wins {
					if err := win.CheckSpareOps(); err != nil {
						return err
					}
					spare += win.SpareOps()
				}
				return nil
			})
			if err != nil || checks < 100 || spare == 0 {
				t.Errorf("%s under %v: %d checks, %d ops spare: %v", name, kind, checks, spare, err)
			}
		}
	}

	impl := mpi.NewImpl(mpi.LAM)
	impl.Cost.InterNodeLatency = 2 * sim.Second // the Put is in flight at the kill
	var wins [2]*mpi.Win
	killNode1(t, impl, func(r *mpi.Rank, _ []string) {
		win, err := r.World().WinCreate(r, 64, 1, nil)
		if err != nil {
			t.Error(err)
			return
		}
		wins[r.Rank()] = win
		if r.Rank() == 1 {
			win.Put(nil, 4, mpi.Byte, 0, 0, 4, mpi.Byte)
		}
		win.Fence(0)
	})
	if w := wins[1]; w.EpochOps() != 1 || w.SpareOps() != 0 {
		t.Errorf("killed rank's window: %d ops in its epoch, %d spare; want the Put kept in the epoch", w.EpochOps(), w.SpareOps())
	}
	for _, w := range wins {
		if err := w.CheckSpareOps(); err != nil {
			t.Error(err)
		}
	}
}
