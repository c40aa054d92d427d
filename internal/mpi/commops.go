package mpi

import (
	"fmt"
	"sort"
)

// Communicator management beyond construction: MPI_Comm_dup and
// MPI_Comm_split. Both are collective; both produce new communicators the
// tool discovers as fresh /SyncObject/Message resources, which is how a
// program's communicator structure becomes visible for focus selection.

// commOpState carries one in-flight collective dup/split on a communicator.
type commOpState struct {
	sync    *syncPoint
	arrived int
	colors  map[int]int // comm rank → color
	keys    map[int]int
	results map[int]*Comm // comm rank → new communicator
	dup     *Comm
}

func (c *Comm) commOp() *commOpState {
	if c.opState == nil {
		c.opState = &commOpState{
			sync:    &syncPoint{n: len(c.local)},
			colors:  map[int]int{},
			keys:    map[int]int{},
			results: map[int]*Comm{},
		}
	}
	return c.opState
}

// Dup is MPI_Comm_dup: a collective copy of the communicator with a fresh
// context. Probe args: (comm, newcomm) with the new communicator visible at
// the return probe.
func (c *Comm) Dup(r *Rank) (*Comm, error) {
	f := r.beginMPI("MPI_Comm_dup", c, nil)
	if c.remote != nil {
		r.endMPI(f)
		return nil, fmt.Errorf("mpi: MPI_Comm_dup of intercommunicator %s not supported", c.Name())
	}
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	st := c.commOp()
	if st.dup == nil {
		st.dup = c.w.newComm(append([]*Rank(nil), c.local...), nil)
		st.dup.name = c.Name() + " (dup)"
		c.w.fireCommCreated(r, st.dup)
	}
	st.arrived++
	dup := st.dup
	if st.arrived == len(c.local) {
		st.arrived, st.dup = 0, nil
	}
	st.sync.wait(r, "MPI_Comm_dup")
	r.probes.SetArg(1, dup)
	r.endMPI(f)
	return dup, nil
}

// Split is MPI_Comm_split: collectively partition the communicator by
// color; within a color, ranks order by (key, old rank). A negative color
// (MPI_UNDEFINED) yields a nil communicator for that caller. Probe args:
// (comm, color, key, newcomm).
func (c *Comm) Split(r *Rank, color, key int) (*Comm, error) {
	f := r.beginMPI("MPI_Comm_split", c, color, key, nil)
	if c.remote != nil {
		r.endMPI(f)
		return nil, fmt.Errorf("mpi: MPI_Comm_split of intercommunicator %s not supported", c.Name())
	}
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	st := c.commOp()
	me := c.RankOf(r)
	st.colors[me] = color
	st.keys[me] = key
	st.arrived++
	if st.arrived == len(c.local) {
		// Last arrival computes the partition for everyone.
		st.arrived = 0
		buildSplitResults(c, st)
	}
	st.sync.wait(r, "MPI_Comm_split")
	out := st.results[me]
	r.probes.SetArg(3, out)
	r.endMPI(f)
	return out, nil
}

// buildSplitResults partitions the communicator by the collected colors.
func buildSplitResults(c *Comm, st *commOpState) {
	groups := map[int][]int{} // color → comm ranks
	for rank, color := range st.colors {
		if color < 0 {
			st.results[rank] = nil
			continue
		}
		groups[color] = append(groups[color], rank)
	}
	colors := make([]int, 0, len(groups))
	for color := range groups {
		colors = append(colors, color)
	}
	sort.Ints(colors)
	for _, color := range colors {
		members := groups[color]
		sort.Slice(members, func(i, j int) bool {
			if st.keys[members[i]] != st.keys[members[j]] {
				return st.keys[members[i]] < st.keys[members[j]]
			}
			return members[i] < members[j]
		})
		ranks := make([]*Rank, len(members))
		for i, m := range members {
			ranks[i] = c.local[m]
		}
		nc := c.w.newComm(ranks, nil)
		nc.name = fmt.Sprintf("%s (split color %d)", c.Name(), color)
		c.w.fireCommCreated(ranks[0], nc)
		for _, m := range members {
			st.results[m] = nc
		}
	}
	st.colors = map[int]int{}
	st.keys = map[int]int{}
}
