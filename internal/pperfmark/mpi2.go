package pperfmark

import (
	"fmt"
	"strings"

	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// mpi2Suite is the MPI-2 half of PPerfMark (Table 3): the programs the paper
// designed to test RMA measurement, window lifecycle handling, dynamic
// process creation, and object naming.
var mpi2Suite = []Entry{{
	Name: "allcount",
	MPI2: true,
	Description: "Transfers a known amount of data with a known number " +
		"of Puts, Gets and Accumulates, to verify the RMA counting metrics.",
	Defaults:    Params{Iterations: 50, MessageSize: 256, Procs: 4},
	PaperParams: "known op and byte counts (unspecified)",
	Make:        allcount,
	ExpectedPutOps: func(p Params) float64 {
		return float64(p.Iterations * (p.Procs - 1))
	},
	ExpectedGetOps: func(p Params) float64 {
		return float64(p.Iterations * (p.Procs - 1))
	},
	ExpectedAccOps: func(p Params) float64 {
		return float64(p.Iterations * (p.Procs - 1))
	},
	ExpectedRMABytes: func(p Params) float64 {
		return float64(3 * p.Iterations * (p.Procs - 1) * p.MessageSize)
	},
	Check: func(res *Result, v *Verdict) {
		v.want(res.Source.Hierarchy().FindPath("/SyncObject/Window/0-1") != nil,
			"window incorporated into the resource hierarchy", "window resource missing")
	},
}, {
	Name: "wincreate-blast",
	MPI2: true,
	Description: "Creates and deallocates a large number of RMA windows " +
		"very quickly; every one must appear (and retire) in the resource hierarchy.",
	Defaults:    Params{Windows: 24, Procs: 4},
	PaperParams: "a large number of windows (unspecified)",
	Make:        wincreateBlast,
	Check:       checkWindows,
}, {
	Name: "winfence-sync",
	MPI2: true,
	Description: "MPI_Win_fence synchronization with an artificial " +
		"bottleneck in rank 0, which arrives late at every fence.",
	Defaults:    Params{Iterations: 300, TimeToWaste: 4, Procs: 4, MessageSize: 64, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "artificial bottleneck in rank 0 (iterations unspecified)",
	Make:        winfenceSync,
	Expect: []Expectation{syncTrue,
		findSync("ranks wait in MPI_Win_fence", "MPI_Win_fence not found", "MPI_Win_fence"),
		window,
		findCPU("rank 0 CPU bound in waste_time", "waste_time not found", "waste_time"),
	},
}, {
	Name: "winscpw-sync",
	MPI2: true,
	Description: "Start/Complete–Post/Wait synchronization; rank 0 " +
		"wastes time between Win_wait and Win_post, so the origins block " +
		"in Win_start (LAM) or Win_complete (MPICH2).",
	Defaults:    Params{Iterations: 300, TimeToWaste: 4, Procs: 3, MessageSize: 64, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "artificial bottleneck in rank 0 (iterations unspecified)",
	Make:        winscpwSync,
	Expect: []Expectation{syncTrue,
		findSync("origins block in MPI_Win_start (LAM)", "MPI_Win_start not found", "MPI_Win_start").under(mpi.LAM),
		findSync("origins block in MPI_Win_complete (MPICH2)", "MPI_Win_complete not found", "MPI_Win_complete").
			under(mpi.MPICH, mpi.MPICH2, mpi.Reference),
		window,
		findCPU("rank 0 CPU bound in waste_time", "waste_time not found", "waste_time"),
	},
}, {
	Name: "spawncount",
	MPI2: true,
	Description: "Spawns a known number of child processes that simply " +
		"exit; all must be detected and added to the resource hierarchy.",
	Defaults:    Params{Children: 4, Procs: 1},
	PaperParams: "a known number of children (unspecified)",
	Make:        spawncount,
	Check:       checkChildren,
}, {
	Name: "spawnsync",
	MPI2: true,
	Description: "Spawns children, then exchanges a known number of " +
		"messages parent↔children; an artificial computational bottleneck " +
		"sits in the parent, so the children wait in MPI_Recv.",
	Defaults:    Params{Iterations: 250, Children: 3, TimeToWaste: 3, Procs: 1, MessageSize: 4, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "known message count, bottleneck in parent",
	Make:        spawnsync,
	ExpectedBytesSent: func(p Params) float64 {
		// parent → each child, and each child's reply, per iteration
		return float64(2 * p.Iterations * p.Children * p.MessageSize)
	},
	Expect: []Expectation{syncTrue,
		findSync("children wait inside childfunction", "childfunction not found", "childfunction"),
		findSync("children wait in MPI_Recv", "MPI_Recv not found", "MPI_Recv"),
		findCPU("parent CPU bound in parentfunction", "parentfunction not found", "parentfunction"),
	},
}, {
	Name: "spawnwin-sync",
	MPI2: true,
	Description: "Spawns children and creates an RMA window over the " +
		"merged parent+child intracommunicator; the parent's bottleneck " +
		"makes the children wait in MPI_Win_fence.",
	Defaults:    Params{Iterations: 250, Children: 3, TimeToWaste: 3, Procs: 1, MessageSize: 64, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "bottleneck in parent, window over parent+children",
	Make:        spawnwinSync,
	Expect: []Expectation{syncTrue,
		findSync("children wait in MPI_Win_fence", "MPI_Win_fence not found", "MPI_Win_fence"),
		findCPU("parent CPU bound in parentfunction", "parentfunction not found", "parentfunction"),
		findSync("message-passing sync from LAM's Isend/Waitall fence", "LAM fence message traffic not found",
			"/SyncObject/Message", "MPI_Isend", "MPI_Waitall").under(mpi.LAM),
	},
	Check: func(res *Result, v *Verdict) {
		named := false
		res.Source.Hierarchy().Root().Walk(func(n *resource.Node) {
			named = named || n.DisplayName() == "ParentChildWindow"
		})
		v.want(named, "friendly window name displayed", "window name missing")
	},
}, {
	Name: "oned",
	MPI2: true,
	Description: "The Using-MPI-2 1-D decomposition example: halo " +
		"exchange via MPI_Put between MPI_Win_fence pairs in exchng1 " +
		"(LAM's fence is an MPI_Barrier, which surfaces as a Barrier bottleneck).",
	Defaults:    Params{Iterations: 400, MessageSize: 4096, Procs: 4, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "the book's example",
	Make:        oned,
	Expect: []Expectation{syncTrue,
		findSync("drilled into exchng1", "exchng1 not found", "exchng1"),
		findSync("found MPI_Win_fence", "MPI_Win_fence not found", "MPI_Win_fence"),
		findSync("LAM: Barrier sync object implicated (fence is a barrier)", "Barrier not implicated under LAM",
			"/SyncObject/Barrier").under(mpi.LAM),
	},
}}

// checkWindows: every window wincreate-blast made is in the hierarchy under
// its own N-M name, and retired after MPI_Win_free.
func checkWindows(res *Result, v *Verdict) {
	ws := res.Source.Hierarchy().Find(resource.SyncObject, resource.Window).Children()
	names, retired, want := map[string]bool{}, 0, res.Params.Windows
	for _, w := range ws {
		names[w.Name()] = true
		if w.Retired() {
			retired++
		}
	}
	if dups := len(names) < len(ws); len(ws) == want && !dups {
		v.Details = append(v.Details, fmt.Sprintf("all %d windows detected with unique N-M ids", len(ws)))
	} else {
		v.Problems = append(v.Problems, fmt.Sprintf("windows detected = %d (dups=%v), want %d", len(ws), dups, want))
	}
	if retired == want {
		v.Details = append(v.Details, "all windows retired after MPI_Win_free")
	} else {
		v.Problems = append(v.Problems, fmt.Sprintf("retired = %d, want %d", retired, want))
	}
}

// checkChildren: every process spawncount spawned is in the hierarchy.
func checkChildren(res *Result, v *Verdict) {
	count := 0
	res.Source.Hierarchy().Find(resource.Machine).Walk(func(n *resource.Node) {
		if strings.Contains(n.Name(), "spawncount-child{") {
			count++
		}
	})
	if count == res.Params.Children {
		v.Details = append(v.Details, fmt.Sprintf("all %d spawned processes incorporated", count))
	} else {
		v.Problems = append(v.Problems, fmt.Sprintf("spawned processes detected = %d, want %d", count, res.Params.Children))
	}
}

// allcount: every non-zero rank performs known Puts/Gets/Accumulates against
// rank 0's window.
func allcount(p Params) mpi.Program {
	const mod = "allcount.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		win, err := c.WinCreate(r, p.MessageSize*4, 1, nil)
		if err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			win.SetName("AllCountWin")
		}
		for i := 0; i < p.Iterations; i++ {
			win.Fence(0)
			if r.Rank() != 0 {
				r.Call(mod, "do_rma", func() {
					win.Put(nil, p.MessageSize, mpi.Byte, 0, 0, p.MessageSize, mpi.Byte)
					win.Get(make([]byte, p.MessageSize), p.MessageSize, mpi.Byte, 0, 0, p.MessageSize, mpi.Byte)
					win.Accumulate(nil, p.MessageSize, mpi.Byte, 0, 0, p.MessageSize, mpi.Byte, mpi.OpReplace)
				})
			}
			win.Fence(0)
		}
		win.Free()
	}
}

// wincreateBlast: rapid create/free cycles; ids get reused, names must stay
// unique.
func wincreateBlast(p Params) mpi.Program {
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < p.Windows; i++ {
			win, err := c.WinCreate(r, 128, 1, nil)
			if err != nil {
				panic(err)
			}
			win.Fence(0)
			if r.Rank() == 0 && r.Rank()+1 < c.Size() {
				win.Put(nil, 16, mpi.Byte, 1, 0, 16, mpi.Byte)
			}
			win.Fence(0)
			if err := win.Free(); err != nil {
				panic(err)
			}
		}
	}
}

// winfenceSync: rank 0 wastes before each fence; the others wait in
// MPI_Win_fence.
func winfenceSync(p Params) mpi.Program {
	const mod = "winfencesync.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		win, err := c.WinCreate(r, p.MessageSize*c.Size(), 1, nil)
		if err != nil {
			panic(err)
		}
		for i := 0; i < p.Iterations; i++ {
			if r.Rank() == 0 {
				r.Call(mod, "waste_time", func() { r.Compute(p.waste()) })
			} else {
				win.Put(nil, p.MessageSize, mpi.Byte, 0, p.MessageSize*r.Rank(), p.MessageSize, mpi.Byte)
			}
			win.Fence(0)
		}
		win.Free()
	}
}

// winscpwSync: PSCW epochs with the target (rank 0) wasting time between
// Win_wait and the next Win_post.
func winscpwSync(p Params) mpi.Program {
	const mod = "winscpwsync.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		win, err := c.WinCreate(r, p.MessageSize*c.Size(), 1, nil)
		if err != nil {
			panic(err)
		}
		n := c.Size()
		if r.Rank() == 0 {
			origins := make([]int, 0, n-1)
			for i := 1; i < n; i++ {
				origins = append(origins, i)
			}
			for i := 0; i < p.Iterations; i++ {
				win.Post(origins, 0)
				win.WaitEpoch()
				r.Call(mod, "waste_time", func() { r.Compute(p.waste()) })
			}
		} else {
			for i := 0; i < p.Iterations; i++ {
				win.Start([]int{0}, 0)
				win.Put(nil, p.MessageSize, mpi.Byte, 0, p.MessageSize*r.Rank(), p.MessageSize, mpi.Byte)
				win.Complete()
			}
		}
		// Quiesce all epochs before the collective free.
		c.Barrier(r)
		win.Free()
	}
}

// spawncount: spawn children that just exit.
func spawncount(p Params) mpi.Program {
	return func(r *mpi.Rank, _ []string) {
		w := r.Universe()
		w.Register("spawncount-child", func(cr *mpi.Rank, _ []string) {})
		if _, err := r.World().Spawn(r, "spawncount-child", nil, p.Children, nil, 0); err != nil {
			panic(err)
		}
	}
}

// spawnsync: parent computes (the bottleneck) then messages each child;
// children wait in MPI_Recv inside childfunction.
func spawnsync(p Params) mpi.Program {
	const mod = "spawnsync.c"
	return func(r *mpi.Rank, _ []string) {
		w := r.Universe()
		w.Register("spawnsync-child", func(cr *mpi.Rank, args []string) {
			parent := cr.GetParent()
			iters := p.Iterations
			for i := 0; i < iters; i++ {
				cr.Call(mod, "childfunction", func() {
					parent.Recv(cr, nil, p.MessageSize, mpi.Byte, 0, 1)
					parent.Send(cr, nil, p.MessageSize, mpi.Byte, 0, 2)
				})
			}
		})
		inter, err := r.World().Spawn(r, "spawnsync-child", nil, p.Children, nil, 0)
		if err != nil {
			panic(err)
		}
		inter.SetName(r, "Parent&Child")
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "parentfunction", func() { r.Compute(p.waste()) })
			for ch := 0; ch < p.Children; ch++ {
				inter.Send(r, nil, p.MessageSize, mpi.Byte, ch, 1)
			}
			for ch := 0; ch < p.Children; ch++ {
				inter.Recv(r, nil, p.MessageSize, mpi.Byte, mpi.AnySource, 2)
			}
		}
	}
}

// spawnwinSync: window over the merged parent+children communicator; the
// parent's computation makes children wait in MPI_Win_fence.
func spawnwinSync(p Params) mpi.Program {
	const mod = "spawnwinsync.c"
	childBody := func(p Params) func(cr *mpi.Rank, _ []string) {
		return func(cr *mpi.Rank, _ []string) {
			parent := cr.GetParent()
			merged, err := parent.Merge(cr, true)
			if err != nil {
				panic(err)
			}
			win, err := merged.WinCreate(cr, p.MessageSize*merged.Size(), 1, nil)
			if err != nil {
				panic(err)
			}
			me := merged.RankOf(cr)
			for i := 0; i < p.Iterations; i++ {
				win.Put(nil, p.MessageSize, mpi.Byte, 0, p.MessageSize*me, p.MessageSize, mpi.Byte)
				win.Fence(0)
			}
			win.Free()
		}
	}
	return func(r *mpi.Rank, _ []string) {
		w := r.Universe()
		w.Register("spawnwinsync-child", childBody(p))
		inter, err := r.World().Spawn(r, "spawnwinsync-child", nil, p.Children, nil, 0)
		if err != nil {
			panic(err)
		}
		inter.SetName(r, "Parent&Child")
		merged, err := inter.Merge(r, false)
		if err != nil {
			panic(err)
		}
		win, err := merged.WinCreate(r, p.MessageSize*merged.Size(), 1, nil)
		if err != nil {
			panic(err)
		}
		win.SetName("ParentChildWindow")
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "parentfunction", func() { r.Compute(p.waste()) })
			win.Fence(0)
		}
		win.Free()
	}
}

// oned: halo exchange through MPI_Put between fences inside exchng1,
// interleaved with computation — the book's 1-D Poisson example.
func oned(p Params) mpi.Program {
	const mod = "oned.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		n := c.Size()
		win, err := c.WinCreate(r, 2*p.MessageSize, 1, nil)
		if err != nil {
			panic(err)
		}
		up := (r.Rank() + 1) % n
		down := (r.Rank() - 1 + n) % n
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "compute", func() {
				base := p.WasteUnit / 4
				r.Compute(base + sim.Duration(r.Rank())*base/sim.Duration(n))
			})
			r.Call(mod, "exchng1", func() {
				win.Fence(0)
				win.Put(nil, p.MessageSize, mpi.Byte, up, 0, p.MessageSize, mpi.Byte)
				win.Put(nil, p.MessageSize, mpi.Byte, down, p.MessageSize, p.MessageSize, mpi.Byte)
				win.Fence(0)
			})
		}
		win.Free()
	}
}
