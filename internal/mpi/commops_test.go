package mpi

import (
	"fmt"
	"sort"
	"testing"

	"pperf/internal/sim"
)

func TestCommDup(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 2)
	var dupID int
	runProgram(t, w, 4, func(r *Rank, _ []string) {
		c := r.World()
		dup, err := c.Dup(r)
		if err != nil {
			t.Error(err)
			return
		}
		if dup == c || dup.Size() != c.Size() {
			t.Error("dup should be a same-size fresh communicator")
		}
		if r.Rank() == 0 {
			dupID = dup.ID()
		}
		// Messages on the dup do not match receives on the original.
		if r.Rank() == 0 {
			dup.Send(r, nil, 1, Byte, 1, 7)
		} else if r.Rank() == 1 {
			if _, err := dup.Recv(r, nil, 1, Byte, 0, 7); err != nil {
				t.Error(err)
			}
		}
	})
	if dupID == 0 {
		t.Error("dup id missing")
	}
}

func TestCommSplit(t *testing.T) {
	w := newTestWorld(t, MPICH2, 3, 2)
	sizes := make([]int, 6)
	ranks := make([]int, 6)
	runProgram(t, w, 6, func(r *Rank, _ []string) {
		c := r.World()
		// Even ranks → color 0, odd ranks → color 1; key reverses order.
		sub, err := c.Split(r, r.Rank()%2, -r.Rank())
		if err != nil {
			t.Error(err)
			return
		}
		sizes[r.Rank()] = sub.Size()
		ranks[r.Rank()] = sub.RankOf(r)
		// The subgroup is a working communicator: barrier within it.
		if err := sub.Barrier(r); err != nil {
			t.Error(err)
		}
	})
	for i, sz := range sizes {
		if sz != 3 {
			t.Errorf("rank %d subcomm size = %d, want 3", i, sz)
		}
	}
	// Key = -rank reverses: world rank 4 (highest even) gets subrank 0.
	if ranks[4] != 0 || ranks[0] != 2 {
		t.Errorf("subranks = %v", ranks)
	}
}

func TestCommSplitUndefined(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 2)
	runProgram(t, w, 4, func(r *Rank, _ []string) {
		color := 0
		if r.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := r.World().Split(r, color, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if r.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color should yield nil communicator")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("subcomm size = %d", sub.Size())
		}
	})
}

func TestCommSplitRepeated(t *testing.T) {
	// Consecutive collectives on the same communicator must not corrupt
	// each other's staging state.
	w := newTestWorld(t, LAM, 2, 1)
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		for i := 0; i < 5; i++ {
			sub, err := c.Split(r, 0, r.Rank())
			if err != nil || sub.Size() != 2 {
				t.Errorf("iter %d: %v size=%v", i, err, sub.Size())
				return
			}
		}
	})
}

func TestIntercommDupRejected(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 2)
	var dupErr, splitErr error
	w.Register("child", func(r *Rank, _ []string) {
		parent := r.GetParent()
		_, dupErr = parent.Dup(r)
		_, splitErr = parent.Split(r, 0, 0)
	})
	runProgram(t, w, 1, func(r *Rank, _ []string) {
		if _, err := r.World().Spawn(r, "child", nil, 1, nil, 0); err != nil {
			t.Error(err)
		}
	})
	if dupErr == nil || splitErr == nil {
		t.Error("dup/split of intercommunicator should error")
	}
}

func TestMergeProducesWorkingIntracomm(t *testing.T) {
	w := newTestWorld(t, LAM, 3, 2)
	var mergedSize int
	var order []int
	w.Register("child", func(r *Rank, _ []string) {
		parent := r.GetParent()
		merged, err := parent.Merge(r, true)
		if err != nil {
			t.Error(err)
			return
		}
		merged.Barrier(r)
		order = append(order, merged.RankOf(r))
	})
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		inter, err := r.World().Spawn(r, "child", nil, 2, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		merged, err := inter.Merge(r, false)
		if err != nil {
			t.Error(err)
			return
		}
		mergedSize = merged.Size()
		merged.Barrier(r)
	})
	if mergedSize != 4 {
		t.Errorf("merged size = %d, want 4", mergedSize)
	}
	// Children (high side) rank after the 2 parents.
	for _, rk := range order {
		if rk < 2 {
			t.Errorf("child merged rank %d should be ≥ 2", rk)
		}
	}
}

// Every MPI_Intercomm_merge makes a communicator of its own, the same one on
// both sides.
func TestMergeTwiceMakesTwoCommunicators(t *testing.T) {
	w := newTestWorld(t, LAM, 3, 2)
	merges := map[*Rank][2]*Comm{}
	mergeTwice := func(r *Rank, inter *Comm, high bool) {
		var got [2]*Comm
		for i := range got {
			m, err := inter.Merge(r, high)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = m
		}
		merges[r] = got
	}
	w.Register("child", func(r *Rank, _ []string) { mergeTwice(r, r.GetParent(), true) })
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		inter, err := r.World().Spawn(r, "child", nil, 2, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		mergeTwice(r, inter, false)
	})
	first := merges[w.Ranks()[0]]
	if len(merges) != 4 {
		t.Fatalf("%d ranks merged twice, want 4", len(merges))
	}
	if first[0] == first[1] {
		t.Error("the second merge returned the first merge's communicator")
	}
	for r, got := range merges {
		if got != first {
			t.Errorf("%v merged into other communicators than rank 0", r)
		}
	}
}

// The group calling with high=false ranks first, whichever side it is.
func TestMergeOrdersTheLowGroupFirst(t *testing.T) {
	w := newTestWorld(t, LAM, 3, 2)
	var childRanks []int
	w.Register("child", func(r *Rank, _ []string) {
		merged, err := r.GetParent().Merge(r, false)
		if err != nil {
			t.Error(err)
			return
		}
		childRanks = append(childRanks, merged.RankOf(r))
	})
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		inter, err := r.World().Spawn(r, "child", nil, 2, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := inter.Merge(r, true); err != nil {
			t.Error(err)
		}
	})
	sort.Ints(childRanks)
	if fmt.Sprint(childRanks) != "[0 1]" {
		t.Errorf("children (high=false) have merged ranks %v, want [0 1]", childRanks)
	}
}

func TestDupTimingIsCollective(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var after sim.Time
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		if r.Rank() == 0 {
			r.Compute(1 * sim.Second)
		}
		if _, err := r.World().Dup(r); err != nil {
			t.Error(err)
		}
		if r.Rank() == 1 {
			after = r.Now()
		}
	})
	if after < sim.Time(1*sim.Second) {
		t.Errorf("rank 1 left Dup at %v, before rank 0 arrived", after)
	}
}
