package mpi

import (
	"testing"

	"pperf/internal/sim"
)

// The last arrival of a round returns without blocking, so it can arrive at
// the next round, and build that round's value, before the others have
// resumed from the last one. Every party must still leave each round with
// that round's own value.
func TestRendezvousLastArrivalRunsAhead(t *testing.T) {
	const parties, rounds = 3, 6
	w := newTestWorld(t, LAM, 1, parties)
	rv := &rendezvous{n: parties}
	left := make([]int, rounds) // parties that have left each round
	ranAhead := 0
	runProgram(t, w, parties, func(r *Rank, _ []string) {
		if r.Rank() == parties-1 {
			r.Compute(sim.Microsecond) // arrive last at round 0
		}
		for k := 0; k < rounds; k++ {
			v := rv.meet(r, "MPI_Barrier", func(v any, _ bool) any {
				if v != nil {
					return v
				}
				if k > 0 && left[k-1] < parties {
					ranAhead++
				}
				return k
			})
			if v != k {
				t.Errorf("rank %d left round %d with round %v's value", r.Rank(), k, v)
			}
			left[k]++
		}
	})
	if ranAhead == 0 {
		t.Error("no last arrival reached the next round before the others resumed")
	}
}

// Back-to-back setup collectives on one communicator, with the arrival order
// changing every round: every rank leaves each round with that round's
// communicator, window or intercommunicator, and no round's result is
// another's. Where the personality can spawn, two spawns run back to back:
// the last arrival of the first arrives at the second before the others
// resume.
func TestBackToBackSetupRounds(t *testing.T) {
	const n, rounds = 3, 3
	for _, kind := range []ImplKind{LAM, MPICH, MPICH2} {
		w := newTestWorld(t, kind, 2, 2)
		w.Register("child", func(*Rank, []string) {})
		seen := make([][n][5]any, rounds) // round → rank → dup, split, window, two spawns
		runProgram(t, w, n, func(r *Rank, _ []string) {
			c := r.World()
			for k := 0; k < rounds; k++ {
				r.Compute(sim.Duration((r.Rank()+k)%n) * sim.Millisecond)
				dup, err := c.Dup(r)
				if err != nil {
					t.Error(err)
					return
				}
				split, err := c.Split(r, 0, (r.Rank()+k)%n)
				if err != nil {
					t.Error(err)
					return
				}
				win, err := c.WinCreate(r, 8, 1, nil)
				if err != nil {
					t.Error(err)
					return
				}
				got := &seen[k][r.Rank()]
				got[0], got[1], got[2] = dup, split, win.UniqueID()
				if split.RankOf(r) != (r.Rank()+k)%n {
					t.Errorf("%v round %d: rank %d has split rank %d", kind, k, r.Rank(), split.RankOf(r))
				}
				if !w.Impl.SupportsSpawn {
					continue
				}
				for i := 3; i < 5; i++ {
					inter, err := c.Spawn(r, "child", nil, 1, nil, k%n)
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = inter
				}
			}
		})
		for k := range seen {
			for i, what := range []string{"MPI_Comm_dup", "MPI_Comm_split", "MPI_Win_create", "MPI_Comm_spawn", "the second MPI_Comm_spawn"} {
				for rank := 1; rank < n; rank++ {
					if seen[k][rank][i] != seen[k][0][i] {
						t.Errorf("%v round %d: ranks 0 and %d left %s with different results", kind, k, rank, what)
					}
				}
				for j := 0; j < k; j++ {
					if v := seen[k][0][i]; v != nil && v == seen[j][0][i] {
						t.Errorf("%v: %s of round %d returned round %d's result", kind, what, k, j)
					}
				}
			}
			if w.Impl.SupportsSpawn && seen[k][0][3] == seen[k][0][4] {
				t.Errorf("%v round %d: the two spawns returned one intercommunicator", kind, k)
			}
		}
	}
}

// Each family of setup collectives has its own rendezvous: a rank in
// MPI_Comm_dup does not silently match a rank that fell through to
// MPI_Finalize, and the deadlock report names both routines.
func TestMismatchedSetupCallsDeadlock(t *testing.T) {
	const want = "sim: deadlock at 0.000s: 2 process(es) waiting with nothing pending that could wake them: " +
		"p{0} (since 0.000s, in MPI_Comm_dup); p{1} (since 0.000s, in MPI_Finalize)"
	for _, kind := range []ImplKind{LAM, MPICH, MPICH2} {
		w := newTestWorld(t, kind, 2, 1)
		w.Register("p", func(r *Rank, _ []string) {
			if r.Rank() == 0 {
				r.World().Dup(r)
			}
		})
		if _, err := w.LaunchN("p", 2, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Eng.Run(); err == nil || err.Error() != want {
			t.Errorf("%v: run error = %v, want %s", kind, err, want)
		}
	}
}
