package mpi

import (
	"errors"
	"strings"
	"testing"

	"pperf/internal/probe"
	"pperf/internal/sim"
)

func TestFencePutGetData(t *testing.T) {
	for _, kind := range []ImplKind{LAM, MPICH2, Reference} {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, kind, 2, 1)
			got := make([]byte, 4)
			runProgram(t, w, 2, func(r *Rank, _ []string) {
				c := r.World()
				win, err := c.WinCreate(r, 64, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				win.Fence(0)
				if r.Rank() == 0 {
					if err := win.Put([]byte{1, 2, 3, 4}, 4, Byte, 1, 0, 4, Byte); err != nil {
						t.Error(err)
					}
				}
				win.Fence(0)
				if r.Rank() == 0 {
					if err := win.Get(got, 4, Byte, 1, 0, 4, Byte); err != nil {
						t.Error(err)
					}
				}
				win.Fence(0)
				win.Free()
			})
			if got[0] != 1 || got[3] != 4 {
				t.Errorf("%s: got %v after put+get round trip", kind, got)
			}
		})
	}
}

func TestAccumulateSumDouble(t *testing.T) {
	w := newTestWorld(t, Reference, 3, 1)
	var result []float64
	runProgram(t, w, 3, func(r *Rank, _ []string) {
		c := r.World()
		win, err := c.WinCreate(r, 8, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		win.Fence(0)
		// Everyone accumulates its (rank+1) into rank 0's window.
		vals := floatsToBytes([]float64{float64(r.Rank() + 1)})
		if err := win.Accumulate(vals, 1, Double, 0, 0, 1, Double, OpSum); err != nil {
			t.Error(err)
		}
		win.Fence(0)
		if r.Rank() == 0 {
			result = bytesToFloats(win.shared.buf[win.myRank])
		}
		win.Free()
	})
	if len(result) != 1 || result[0] != 6 { // 1+2+3
		t.Errorf("accumulate result = %v, want [6]", result)
	}
}

func TestFenceSynchronizesLateRank(t *testing.T) {
	// winfenceSync pattern: rank 0 is late to the fence; others wait.
	w := newTestWorld(t, MPICH2, 2, 2)
	leave := make([]sim.Time, 3)
	runProgram(t, w, 3, func(r *Rank, _ []string) {
		c := r.World()
		win, _ := c.WinCreate(r, 16, 1, nil)
		if r.Rank() == 0 {
			r.Compute(1 * sim.Second)
		}
		win.Fence(0)
		leave[r.Rank()] = r.Now()
		win.Free()
	})
	for i, tt := range leave {
		if tt < sim.Time(1*sim.Second) {
			t.Errorf("rank %d left fence at %v, before rank 0 arrived", i, tt)
		}
	}
}

func TestLAMFenceNestsBarrier(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	nested := 0
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		if r.Rank() == 0 {
			r.Probes().Insert("MPI_Barrier", probe.Entry, probe.Append, func(ev *probe.Event) {
				if ev.Proc.InFunction("MPI_Win_fence") {
					nested++
				}
			})
		}
		win, _ := r.World().WinCreate(r, 16, 1, nil)
		win.Fence(0)
		win.Free()
	})
	if nested == 0 {
		t.Error("LAM MPI_Win_fence should call MPI_Barrier (the Oned finding)")
	}
}

func TestMPICH2FenceDoesNotNestBarrier(t *testing.T) {
	w := newTestWorld(t, MPICH2, 2, 1)
	nested := 0
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		r.Probes().Insert("MPI_Barrier", probe.Entry, probe.Append, func(*probe.Event) { nested++ })
		win, _ := r.World().WinCreate(r, 16, 1, nil)
		win.Fence(0)
		win.Free()
	})
	if nested != 0 {
		t.Error("MPICH2 fence should synchronize internally, not via MPI_Barrier")
	}
}

func TestPSCWBlockingDiffersByImpl(t *testing.T) {
	// The MPI-2 standard lets either Win_start or Win_complete block waiting
	// for Win_post; LAM blocks in start, MPICH2 in complete (§5.2.1.1).
	for _, tc := range []struct {
		kind         ImplKind
		blockInStart bool
	}{{LAM, true}, {MPICH2, false}} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			w := newTestWorld(t, tc.kind, 2, 1)
			var startDur, completeDur sim.Duration
			runProgram(t, w, 2, func(r *Rank, _ []string) {
				c := r.World()
				win, _ := c.WinCreate(r, 32, 1, nil)
				if r.Rank() == 0 {
					// Late target: wastes time before posting.
					r.Compute(1 * sim.Second)
					win.Post([]int{1}, 0)
					win.WaitEpoch()
				} else {
					t0 := r.Now()
					win.Start([]int{0}, 0)
					startDur = r.Now().Sub(t0)
					win.Put(nil, 4, Byte, 0, 0, 4, Byte)
					t1 := r.Now()
					win.Complete()
					completeDur = r.Now().Sub(t1)
				}
				win.Free()
			})
			if tc.blockInStart && startDur < 500*sim.Millisecond {
				t.Errorf("%s: Win_start took %v, expected it to block for the post", tc.kind, startDur)
			}
			if !tc.blockInStart && completeDur < 500*sim.Millisecond {
				t.Errorf("%s: Win_complete took %v, expected it to block for the post", tc.kind, completeDur)
			}
		})
	}
}

func TestWindowIDReuseAndUniqueNames(t *testing.T) {
	// §4.2.1: the implementation may reuse a window id after MPI_Win_free,
	// so the tool's N-M identifiers must stay unique.
	w := newTestWorld(t, LAM, 2, 1)
	var uniques []string
	var implIDs []string // the N of each "N-M"
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		for i := 0; i < 3; i++ {
			win, err := c.WinCreate(r, 8, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.Rank() == 0 {
				uniques = append(uniques, win.UniqueID())
				implID, _, _ := strings.Cut(win.UniqueID(), "-")
				implIDs = append(implIDs, implID)
			}
			win.Free()
		}
	})
	if implIDs[0] != implIDs[1] || implIDs[1] != implIDs[2] {
		t.Errorf("impl ids = %v, want reuse of the same id", implIDs)
	}
	seen := map[string]bool{}
	for _, u := range uniques {
		if seen[u] {
			t.Errorf("duplicate unique id %q in %v", u, uniques)
		}
		seen[u] = true
	}
}

func TestPassiveTargetUnsupportedOnLAMAndMPICH2(t *testing.T) {
	for _, kind := range []ImplKind{LAM, MPICH2} {
		w := newTestWorld(t, kind, 2, 1)
		var lockErr error
		runProgram(t, w, 2, func(r *Rank, _ []string) {
			win, _ := r.World().WinCreate(r, 8, 1, nil)
			if r.Rank() == 0 {
				lockErr = win.Lock(LockExclusive, 1, 0)
			}
			win.Free()
		})
		var uns *ErrUnsupported
		if !errors.As(lockErr, &uns) {
			t.Errorf("%s: Lock error = %v, want ErrUnsupported", kind, lockErr)
		}
	}
}

func TestPassiveTargetReferenceImpl(t *testing.T) {
	w := newTestWorld(t, Reference, 2, 1)
	got := make([]byte, 2)
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		win, _ := c.WinCreate(r, 16, 1, nil)
		win.Fence(0)
		if r.Rank() == 0 {
			if err := win.Lock(LockExclusive, 1, 0); err != nil {
				t.Error(err)
			}
			win.Put([]byte{5, 6}, 2, Byte, 1, 0, 2, Byte)
			if err := win.Unlock(1); err != nil {
				t.Error(err)
			}
			win.Lock(LockShared, 1, 0)
			win.Get(got, 2, Byte, 1, 0, 2, Byte)
			win.Unlock(1)
		} else {
			r.Compute(200 * sim.Millisecond) // target not explicitly involved
		}
		win.Fence(0)
		win.Free()
	})
	if got[0] != 5 || got[1] != 6 {
		t.Errorf("passive-target round trip got %v", got)
	}
}

func TestLockExclusionSerializes(t *testing.T) {
	w := newTestWorld(t, Reference, 3, 1)
	var holds []int
	runProgram(t, w, 3, func(r *Rank, _ []string) {
		c := r.World()
		win, _ := c.WinCreate(r, 8, 1, nil)
		if r.Rank() != 0 {
			if err := win.Lock(LockExclusive, 0, 0); err != nil {
				t.Error(err)
			}
			holds = append(holds, r.Rank())
			r.Compute(100 * sim.Millisecond)
			holds = append(holds, r.Rank())
			win.Unlock(0)
		}
		win.Free()
	})
	// With exclusive locks, hold intervals cannot interleave: the log must
	// be [a a b b], not [a b a b].
	if len(holds) != 4 || holds[0] != holds[1] || holds[2] != holds[3] {
		t.Errorf("holds = %v, want serialized pairs", holds)
	}
}

func TestRMAErrorsOnBadUsage(t *testing.T) {
	w := newTestWorld(t, Reference, 2, 1)
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		win, _ := c.WinCreate(r, 8, 1, nil)
		if r.Rank() == 0 {
			if err := win.Put(nil, 1, Byte, 99, 0, 1, Byte); err == nil {
				t.Error("Put to out-of-range rank should fail")
			}
			if err := win.Complete(); err == nil {
				t.Error("Complete without Start should fail")
			}
			if err := win.Unlock(1); err == nil {
				t.Error("Unlock without Lock should fail")
			}
		}
		win.Free()
	})
}

func TestWinSetNamePropagatesToInternalComm(t *testing.T) {
	// LAM stores window names in the window's communicator (Fig 23).
	w := newTestWorld(t, LAM, 2, 1)
	var named []string
	w.AddHooks(&Hooks{
		NameSet: func(r *Rank, obj any, name string) { named = append(named, name) },
	})
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		win, _ := r.World().WinCreate(r, 8, 1, nil)
		if r.Rank() == 0 {
			win.SetName("ParentChildWindow")
			if win.InternalComm() == nil {
				t.Error("LAM window should carry an internal communicator")
			} else if win.InternalComm().Name() != "ParentChildWindow" {
				t.Errorf("internal comm name = %q", win.InternalComm().Name())
			}
		}
		win.Free()
	})
	if len(named) == 0 || named[0] != "ParentChildWindow" {
		t.Errorf("NameSet hooks = %v", named)
	}
}

func TestWinCreatedHookAndFreeRetires(t *testing.T) {
	w := newTestWorld(t, MPICH2, 2, 1)
	created, freed := 0, 0
	w.AddHooks(&Hooks{
		WinCreated: func(r *Rank, win *Win) { created++ },
		WinFreed:   func(r *Rank, win *Win) { freed++ },
	})
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		win, _ := r.World().WinCreate(r, 8, 1, nil)
		win.Free()
		if err := win.Fence(0); err == nil || !strings.Contains(err.Error(), "freed window") {
			t.Errorf("fence on a freed window = %v, want the freed-window error", err)
		}
	})
	if created != 2 || freed != 2 {
		t.Errorf("created=%d freed=%d, want 2/2 (per rank)", created, freed)
	}
}
