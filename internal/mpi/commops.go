package mpi

import (
	"fmt"
	"sort"
)

// Communicator management beyond construction: MPI_Comm_dup and
// MPI_Comm_split. Both are collective; both produce new communicators the
// tool discovers as fresh /SyncObject/Message resources, which is how a
// program's communicator structure becomes visible for focus selection.

// Dup is MPI_Comm_dup: a collective copy of the communicator with a fresh
// context. Probe args: (comm, newcomm) with the new communicator visible at
// the return probe.
func (c *Comm) Dup(r *Rank) (*Comm, error) {
	f := r.beginMPI("MPI_Comm_dup", ref(c), none)
	if c.remote != nil {
		r.endMPI(f)
		return nil, fmt.Errorf("mpi: MPI_Comm_dup of intercommunicator %s not supported", c.Name())
	}
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	dup := c.ops.meet(r, "MPI_Comm_dup", func(v any, _ bool) any {
		if dup, ok := v.(*Comm); ok {
			return dup
		}
		dup := c.w.newComm(append([]*Rank(nil), c.local...), nil)
		dup.name = c.Name() + " (dup)"
		c.w.fireCommCreated(r, dup)
		return dup
	}).(*Comm)
	r.probes.SetArg(1, ref(dup))
	r.endMPI(f)
	return dup, nil
}

// Split is MPI_Comm_split: collectively partition the communicator by
// color; within a color, ranks order by (key, old rank). A negative color
// (MPI_UNDEFINED) yields a nil communicator for that caller. Probe args:
// (comm, color, key, newcomm).
func (c *Comm) Split(r *Rank, color, key int) (*Comm, error) {
	f := r.beginMPI("MPI_Comm_split", ref(c), num(color), num(key), none)
	if c.remote != nil {
		r.endMPI(f)
		return nil, fmt.Errorf("mpi: MPI_Comm_split of intercommunicator %s not supported", c.Name())
	}
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	me := c.RankOf(r)
	sp := c.ops.meet(r, "MPI_Comm_split", func(v any, last bool) any {
		sp, ok := v.(*splitRound)
		if !ok {
			n := len(c.local)
			sp = &splitRound{color: make([]int, n), key: make([]int, n), out: make([]*Comm, n)}
		}
		sp.color[me], sp.key[me] = color, key
		if last {
			sp.partition(c)
		}
		return sp
	}).(*splitRound)
	out := sp.out[me]
	r.probes.SetArg(3, ref(out))
	r.endMPI(f)
	return out, nil
}

// splitRound is the value of one MPI_Comm_split round: every rank's color
// and key, and, once the last arrival has partitioned them, its communicator.
type splitRound struct {
	color, key []int // by comm rank
	out        []*Comm
}

// partition builds one communicator per non-negative color, in color order;
// within a color, ranks order by (key, old rank).
func (sp *splitRound) partition(c *Comm) {
	groups := map[int][]int{} // color → comm ranks, ascending
	for rank, color := range sp.color {
		if color >= 0 {
			groups[color] = append(groups[color], rank)
		}
	}
	colors := make([]int, 0, len(groups))
	for color := range groups {
		colors = append(colors, color)
	}
	sort.Ints(colors)
	for _, color := range colors {
		members := groups[color]
		sort.SliceStable(members, func(i, j int) bool { return sp.key[members[i]] < sp.key[members[j]] })
		ranks := make([]*Rank, len(members))
		for i, m := range members {
			ranks[i] = c.local[m]
		}
		nc := c.w.newComm(ranks, nil)
		nc.name = fmt.Sprintf("%s (split color %d)", c.Name(), color)
		c.w.fireCommCreated(ranks[0], nc)
		for _, m := range members {
			sp.out[m] = nc
		}
	}
}
