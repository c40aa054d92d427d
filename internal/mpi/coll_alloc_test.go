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

// The allocation budget of the collectives over the shadow context and of an
// RMA epoch, at six ranks. Their point-to-point calls take recycled requests
// and pre-boxed tags and an RMA op is its own event, so what is left is the
// one box per MPI_Waitall of LAM's linear barrier: its request array, handed
// to the probe layer as an argument. MPICH's and MPICH2's dissemination
// barrier allocates nothing, nor does an MPICH fence epoch. Before, a LAM
// barrier cost 53 objects, an MPICH one 36, and a LAM fence epoch of Put and
// Get 88.
func TestCollectiveAllocationBudget(t *testing.T) {
	barrier := func(r *Rank, _ *Win) { r.World().Barrier(r) }
	fenceEpoch := func(r *Rank, win *Win) {
		peer := (r.Rank() + 1) % r.Size()
		win.Put(nil, 4, Byte, peer, 0, 4, Byte)
		win.Get(nil, 4, Byte, peer, 8, 4, Byte)
		win.Fence(0)
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
	} {
		allocs, waitalls := epochAllocs(t, tc.kind, tc.body)
		if waitalls != tc.wantWaitalls {
			t.Errorf("%s: %v MPI_Waitall calls per round, want %v", tc.name, waitalls, tc.wantWaitalls)
		}
		if allocs > waitalls {
			t.Errorf("%s at six ranks: %v allocs per round, want at most one per MPI_Waitall (%v)", tc.name, allocs, waitalls)
		}
	}
}
