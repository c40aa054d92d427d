package mpi

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/probe"
	"pperf/internal/sim"
)

// The broadcast and gather every collective is now built on, against the
// versions they replaced: Bcast's own binomial tree, the copies of it inlined
// at the tail of Allreduce and Allgather, Gather's linear fan-in and the
// gatherInternal copy of that. The ref* methods below are those versions,
// kept as they were (receive buffers included).

func (c *Comm) refBcast(r *Rank, data []byte, count int, dt Datatype, root int) ([]byte, error) {
	defer r.endMPI(r.beginMPI("MPI_Bcast", addr(data), num(count), dt.arg(), num(root), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)

	sh := c.shadowComm()
	n := len(c.localGroup(r))
	me := c.RankOf(r)
	vrank := (me - root + n) % n

	if vrank != 0 {
		parent := (vrank-lowestPow2LE(vrank))%n + root
		st, err := sh.Recv(r, make([]byte, count*dt.Size()), count, dt, parent%n, bcastTag)
		if err != nil {
			return nil, err
		}
		data = st.Data()
	}
	for mask := nextPow2GE(vrank + 1); vrank+mask < n; mask *= 2 {
		child := (vrank + mask + root) % n
		if err := sh.Send(r, data, count, dt, child, bcastTag); err != nil {
			return nil, err
		}
	}
	return data, nil
}

func (c *Comm) refAllreduce(r *Rank, vals []float64, dt Datatype, op Op) ([]float64, error) {
	defer r.endMPI(r.beginMPI("MPI_Allreduce", addr(vals), none, num(len(vals)), dt.arg(), ref(op), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)

	acc, err := c.reduceInternal(r, vals, dt, op, 0, reduceTag+1)
	if err != nil {
		return nil, err
	}
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	me := c.RankOf(r)
	count := len(vals)
	var data []byte
	if me == 0 {
		data = floatsToBytes(acc)
	}
	vrank := me
	if vrank != 0 {
		parent := vrank - lowestPow2LE(vrank)
		st, err := sh.Recv(r, make([]byte, 8*count), count, dt, parent%n, bcastTag+1)
		if err != nil {
			return nil, err
		}
		data = st.Data()
	}
	for mask := nextPow2GE(vrank + 1); vrank+mask < n; mask *= 2 {
		if err := sh.Send(r, data, count, dt, vrank+mask, bcastTag+1); err != nil {
			return nil, err
		}
	}
	return bytesToFloats(data), nil
}

func (c *Comm) refGather(r *Rank, data []byte, count int, dt Datatype, root int) ([]byte, error) {
	defer r.endMPI(r.beginMPI("MPI_Gather", addr(data), num(count), dt.arg(), none, num(count), dt.arg(), num(root), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	me := c.RankOf(r)
	width := count * dt.Size()
	if me != root {
		return nil, sh.Send(r, padTo(data, width), count, dt, root, gatherTag)
	}
	out := make([]byte, width*n)
	copy(out[width*me:], padTo(data, width))
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		st, err := sh.Recv(r, nil, count, dt, i, gatherTag)
		if err != nil {
			return nil, err
		}
		copy(out[width*i:], st.Data())
	}
	return out, nil
}

func (c *Comm) refAllgather(r *Rank, data []byte, count int, dt Datatype) ([]byte, error) {
	defer r.endMPI(r.beginMPI("MPI_Allgather", addr(data), num(count), dt.arg(), none, num(count), dt.arg(), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	n := len(c.localGroup(r))
	gathered, err := c.refGatherInternal(r, data, count, dt)
	if err != nil {
		return nil, err
	}
	sh := c.shadowComm()
	me := c.RankOf(r)
	if me != 0 {
		parent := me - lowestPow2LE(me)
		st, err := sh.Recv(r, nil, count*n, dt, parent%n, gatherTag+1)
		if err != nil {
			return nil, err
		}
		gathered = st.Data()
	}
	for mask := nextPow2GE(me + 1); me+mask < n; mask *= 2 {
		if err := sh.Send(r, gathered, count*n, dt, me+mask, gatherTag+1); err != nil {
			return nil, err
		}
	}
	return gathered, nil
}

func (c *Comm) refGatherInternal(r *Rank, data []byte, count int, dt Datatype) ([]byte, error) {
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	me := c.RankOf(r)
	width := count * dt.Size()
	if me != 0 {
		return nil, sh.Send(r, padTo(data, width), count, dt, 0, gatherTag+2)
	}
	out := make([]byte, width*n)
	copy(out, padTo(data, width))
	for i := 1; i < n; i++ {
		st, err := sh.Recv(r, nil, count, dt, i, gatherTag+2)
		if err != nil {
			return nil, err
		}
		copy(out[width*i:], st.Data())
	}
	return out, nil
}

// The replaced versions' two helpers, which the one loop in bcastTree made
// unnecessary.

// lowestPow2LE returns the highest power of two <= v's lowest set bit
// distance — concretely, the largest power of two p with p <= v such that
// v-p is the binomial-tree parent step (v & -v for v>0).
func lowestPow2LE(v int) int {
	if v <= 0 {
		return 1
	}
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
}

// nextPow2GE returns the smallest power of two >= v.
func nextPow2GE(v int) int {
	p := 1
	for p < v {
		p *= 2
	}
	return p
}

// collectives is the set of operations one variant of the program runs.
type collectives struct {
	bcast     func(c *Comm, r *Rank, data []byte, count int, dt Datatype, root int) ([]byte, error)
	allreduce func(c *Comm, r *Rank, vals []float64, dt Datatype, op Op) ([]float64, error)
	gather    func(c *Comm, r *Rank, data []byte, count int, dt Datatype, root int) ([]byte, error)
	allgather func(c *Comm, r *Rank, data []byte, count int, dt Datatype) ([]byte, error)
}

// runCollectives runs every collective once, rooted ones at root, on n ranks
// and returns the message trace — one line per point-to-point call the
// collectives made on the shadow context, (time, src, dst, tag, bytes) for
// the sending side and (time, receiver, source, tag, bytes) for the receiving
// side, in execution order — followed by what each rank got back.
func runCollectives(t *testing.T, kind ImplKind, n, root int, ops collectives) []string {
	t.Helper()
	w := NewWorld(sim.NewEngine(7), cluster.DefaultSpec(4, 4), NewImpl(kind))
	var trace []string
	w.AddHooks(&Hooks{ProcessStarted: func(r *Rank) {
		note := func(side string, peer, tag int) probe.Handler {
			return func(ev *probe.Event) {
				size := ev.Arg(peer-2).Int * ev.Arg(peer-1).Ref.(Datatype).Size()
				trace = append(trace, fmt.Sprintf("%v %s %d↔%v tag=%v bytes=%d",
					ev.Time, side, r.Rank(), ev.Arg(peer).Int, ev.Arg(tag).Int, size))
			}
		}
		for _, p := range []string{"MPI_", "PMPI_"} {
			for _, fn := range []string{"Send", "Isend", "Sendrecv"} {
				r.Probes().Insert(p+fn, probe.Entry, probe.Append, note("send", 3, 4))
			}
			for _, fn := range []string{"Recv", "Irecv"} {
				r.Probes().Insert(p+fn, probe.Entry, probe.Append, note("recv", 3, 4))
			}
			r.Probes().Insert(p+"Sendrecv", probe.Entry, probe.Append, note("recv", 8, 9))
		}
	}})
	results := make([]string, n)
	runProgram(t, w, n, func(r *Rank, _ []string) {
		c, me := r.World(), r.Rank()
		check := func(err error) {
			if err != nil {
				t.Errorf("%v n=%d root=%d rank %d: %v", kind, n, root, me, err)
			}
		}
		check(c.Barrier(r))
		b, err := ops.bcast(c, r, []byte{byte(root), 2, 3, 4, 5, 6, 7, 8}, 2, Int, root)
		check(err)
		red, err := c.Reduce(r, []float64{float64(me), 1}, Double, OpSum, root)
		check(err)
		all, err := ops.allreduce(c, r, []float64{float64(me), 2}, Double, OpSum)
		check(err)
		g, err := ops.gather(c, r, []byte{byte(me), byte(me + 100)}, 2, Byte, root)
		check(err)
		sc, err := c.Scatter(r, g, 2, Byte, root)
		check(err)
		ag, err := ops.allgather(c, r, []byte{byte(me), byte(me + 50), 9}, 3, Byte)
		check(err)
		a2a, err := c.Alltoall(r, bytes.Repeat([]byte{byte(me)}, n), 1, Byte)
		check(err)
		results[me] = fmt.Sprintf("rank %d: bcast=%v reduce=%v allreduce=%v gather=%v scatter=%v allgather=%v alltoall=%v at %v",
			me, b, red, all, g, sc, ag, a2a, r.Now())
	})
	return append(trace, results...)
}

// Every collective at 1–9 and 16 ranks × every root, under the fan-in/fan-out
// barrier (LAM) and the dissemination barrier (MPICH2): the shared bcastTree
// and gatherTo must produce the message trace — same peers, tags, sizes,
// order and virtual times — and the results the five hand-written copies did.
func TestCollectivesMatchReplacedVersions(t *testing.T) {
	now := collectives{(*Comm).Bcast, (*Comm).Allreduce, (*Comm).Gather, (*Comm).Allgather}
	ref := collectives{(*Comm).refBcast, (*Comm).refAllreduce, (*Comm).refGather, (*Comm).refAllgather}
	for _, kind := range []ImplKind{LAM, MPICH2} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
			for root := 0; root < n; root++ {
				got, want := runCollectives(t, kind, n, root, now), runCollectives(t, kind, n, root, ref)
				if n > 1 && len(want) <= n {
					t.Fatalf("%v n=%d root=%d: the probes traced no message", kind, n, root)
				}
				if !slices.Equal(got, want) {
					for i := 0; i < len(got) && i < len(want); i++ {
						if got[i] != want[i] {
							t.Fatalf("%v n=%d root=%d: line %d of the trace\n got %s\nwant %s", kind, n, root, i, got[i], want[i])
						}
					}
					t.Fatalf("%v n=%d root=%d: trace has %d lines, want %d", kind, n, root, len(got), len(want))
				}
			}
		}
	}
}
