package mpi

import (
	"testing"

	"pperf/internal/probe"
)

// epochAllocs runs body on six ranks (three nodes of two) round after round
// and returns, once the free lists are warm, the allocations of one round of
// all six ranks together — counted on rank 0, while the others keep step —
// and the MPI_Waitall calls of one round. Every rank holds a window for body.
func epochAllocs(t *testing.T, kind ImplKind, body func(r *Rank, win *Win)) (allocs, waitalls float64) {
	t.Helper()
	const ranks, warm, rounds = 6, 3, 100
	w := newTestWorld(t, kind, 3, 2)
	calls := 0
	count := func(*probe.Event) { calls++ }
	runProgram(t, w, ranks, func(r *Rank, _ []string) {
		r.Probes().Insert(w.Impl.fn("MPI_Waitall").Name, probe.Entry, probe.Append, count)
		win, err := r.World().WinCreate(r, 64, 1, nil)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < warm; i++ {
			body(r, win)
		}
		if r.Rank() == 0 {
			allocs = testing.AllocsPerRun(rounds, func() { body(r, win) })
		} else {
			for i := 0; i <= rounds; i++ { // AllocsPerRun's warm-up call, then rounds
				body(r, win)
			}
		}
	})
	return allocs, float64(calls) / (warm + rounds + 1)
}

// The allocation budget of the collectives over the shadow context, of an
// RMA epoch and of point-to-point traffic, at six ranks: none allocates. The
// point-to-point calls take recycled requests and messages, an RMA op and a
// PSCW notice are their own events from free lists, and no probe argument is
// boxed — not LAM's MPI_Waitall request array, not a count, displacement or
// tag of 256 or more, not an AnySource. Before, each MPI_Waitall cost one
// object, a LAM barrier had cost 53, an MPICH one 36, and a LAM fence epoch
// of Put and Get 88.
func TestCollectiveAllocationBudget(t *testing.T) {
	barrier := func(r *Rank, _ *Win) { r.World().Barrier(r) }
	fenceEpoch := func(r *Rank, win *Win) {
		peer := (r.Rank() + 1) % r.Size()
		win.Put(nil, 4, Byte, peer, 0, 4, Byte)
		win.Get(nil, 4, Byte, peer, 8, 4, Byte)
		win.Fence(0)
	}
	// A ring of PSCW epochs: each rank exposes its window to the rank before
	// it and puts into the rank after it. The groups are the program's own,
	// made once, as a C program's would be.
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	groups := map[*Rank][2][]int{}
	pscwEpoch := func(r *Rank, win *Win) {
		g, ok := groups[r]
		if !ok {
			n := r.Size()
			g = [2][]int{{(r.Rank() + n - 1) % n}, {(r.Rank() + 1) % n}}
			groups[r] = g
		}
		check(win.Post(g[0], 0))
		check(win.Start(g[1], 0))
		check(win.Put(nil, 300, Byte, g[1][0], 256, 300, Byte))
		check(win.Complete())
		check(win.WaitEpoch())
	}
	// Pairs exchange by Send and an AnySource Recv, then the ring shifts by
	// Sendrecv; counts and tags are 256 or more.
	p2p := func(r *Rank, _ *Win) {
		c, me, n := r.World(), r.Rank(), r.Size()
		pair := me ^ 1
		recv := func() {
			_, err := c.Recv(r, nil, 300, Byte, AnySource, 1000)
			check(err)
		}
		if me%2 == 0 {
			check(c.Send(r, nil, 300, Byte, pair, 1000))
			recv()
		} else {
			recv()
			check(c.Send(r, nil, 300, Byte, pair, 1000))
		}
		_, err := c.Sendrecv(r, nil, 256, Int, (me+1)%n, 700, nil, 256, Int, (me+n-1)%n, 700)
		check(err)
	}
	for _, tc := range []struct {
		name         string
		kind         ImplKind
		body         func(r *Rank, win *Win)
		wantWaitalls float64
	}{
		{"LAM barrier", LAM, barrier, 7},
		{"MPICH barrier", MPICH, barrier, 0},
		{"MPICH2 barrier", MPICH2, barrier, 0},
		{"LAM fence epoch", LAM, fenceEpoch, 7},
		{"MPICH fence epoch", MPICH, fenceEpoch, 0},
		{"LAM PSCW epoch", LAM, pscwEpoch, 0},
		{"MPICH2 PSCW epoch", MPICH2, pscwEpoch, 0},
		{"LAM point-to-point", LAM, p2p, 0},
		{"MPICH2 point-to-point", MPICH2, p2p, 0},
	} {
		allocs, waitalls := epochAllocs(t, tc.kind, tc.body)
		if waitalls != tc.wantWaitalls {
			t.Errorf("%s: %v MPI_Waitall calls per round, want %v", tc.name, waitalls, tc.wantWaitalls)
		}
		if allocs != 0 {
			t.Errorf("%s at six ranks: %v allocs per round, want 0", tc.name, allocs)
		}
	}
}
