package pperfmark

import (
	"pperf/internal/consultant"
	"pperf/internal/mpi"
	"pperf/internal/sim"
)

// extensionSuite holds the programs beyond the paper's Table 3. The paper
// could not implement its passive-target test programs because neither LAM
// nor MPICH2 supported passive-target synchronization at the time
// (§5.2.1.1); this reproduction carries a Reference personality that does,
// so the planned programs exist here as the paper's future work delivered.
// An MPI-I/O program likewise exercises the §3 discussion of I/O measurement.
var extensionSuite = []Entry{{
	Name: "winlock-sync",
	MPI2: true,
	Description: "Passive-target synchronization: origins contend for an " +
		"exclusive lock on rank 0's window; waiting accrues in " +
		"MPI_Win_lock/MPI_Win_unlock (the paper's unimplemented passive-target test).",
	Defaults:    Params{Iterations: 200, TimeToWaste: 2, Procs: 3, MessageSize: 64, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "planned but unimplementable in 2004 (no passive-target support)",
	Make:        winlockSync,
	Expect: []Expectation{syncTrue,
		findSync("origins contend in MPI_Win_lock/MPI_Win_unlock", "passive-target waiting not found", "MPI_Win_lock", "MPI_Win_unlock"),
		window,
	},
	NeedsPassive: true,
	Extension:    true,
}, {
	Name: "fileio-bound",
	MPI2: true,
	Description: "Every rank writes and reads through MPI-I/O; the time " +
		"goes to I/O blocking, exercising the §3 MPI-I/O measurement discussion.",
	Defaults:    Params{Iterations: 600, MessageSize: 256 * 1024, Procs: 4},
	PaperParams: "discussed (§3) but not evaluated in the paper",
	Make:        fileioBound,
	Expect: []Expectation{
		{Hyp: consultant.HypIO, Detail: "ExcessiveIOBlockingTime true", Problem: "IO hypothesis false"},
		{Hyp: consultant.HypIO, Focus: []string{"MPI_File_write_at", "checkpoint"},
			Detail: "drilled into the MPI-I/O writes", Problem: "I/O code not found"},
	},
	Extension: true,
}}

// winlockSync: origins lock rank 0's window exclusively, hold it while
// transferring (and computing briefly), unlock. Contention shows up as
// passive-target synchronization waiting time.
func winlockSync(p Params) mpi.Program {
	const mod = "winlocksync.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		win, err := c.WinCreate(r, p.MessageSize*c.Size(), 1, nil)
		if err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			win.SetName("LockedWin")
			// The target is not explicitly involved: it computes.
			for i := 0; i < p.Iterations; i++ {
				r.Call(mod, "target_work", func() { r.Compute(p.waste() / 4) })
			}
		} else {
			for i := 0; i < p.Iterations; i++ {
				r.Call(mod, "locked_update", func() {
					if err := win.Lock(mpi.LockExclusive, 0, 0); err != nil {
						panic(err)
					}
					win.Put(nil, p.MessageSize, mpi.Byte, 0, 0, p.MessageSize, mpi.Byte)
					r.Compute(p.waste()) // hold the lock while computing
					if err := win.Unlock(0); err != nil {
						panic(err)
					}
				})
			}
		}
		c.Barrier(r)
		win.Free()
	}
}

// fileioBound: collective open, then per-rank writes and reads.
func fileioBound(p Params) mpi.Program {
	const mod = "fileiobound.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		f, err := c.FileOpen(r, "dataset.out", mpi.ModeCreate|mpi.ModeRDWR, nil)
		if err != nil {
			panic(err)
		}
		stride := int64(p.MessageSize)
		buf := make([]byte, p.MessageSize) // verify's read buffer, one per rank
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "checkpoint", func() {
				off := int64(r.Rank())*stride + int64(i)*stride*int64(c.Size())
				if err := f.WriteAt(r, off, nil, p.MessageSize, mpi.Byte); err != nil {
					panic(err)
				}
			})
			if i%10 == 9 {
				r.Call(mod, "verify", func() {
					if err := f.ReadAt(r, 0, buf, p.MessageSize, mpi.Byte); err != nil {
						panic(err)
					}
				})
			}
		}
		if err := f.Close(r); err != nil {
			panic(err)
		}
	}
}
