package mpi

import (
	"encoding/binary"
	"math"
)

// Collective operations. Each personality implements them the way its real
// counterpart does, *through the traced point-to-point routines on the
// communicator's shadow context*, so the tool can observe the internals —
// e.g. the Performance Consultant discovering that MPICH's PMPI_Barrier is a
// collective communication over PMPI_Sendrecv (Fig 9).

// Barrier is MPI_Barrier. Probe args: (comm).
func (c *Comm) Barrier(r *Rank) error {
	defer r.endMPI(r.beginMPI("MPI_Barrier", ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	if c.w.Impl.BarrierViaSendrecv {
		return c.disseminationBarrier(r)
	}
	return c.linearBarrier(r)
}

// disseminationBarrier is the MPICH-style algorithm: ceil(log2 n) rounds of
// Sendrecv with rotating partners. Works for any group size.
func (c *Comm) disseminationBarrier(r *Rank) error {
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	if n <= 1 {
		return nil
	}
	me := c.RankOf(r)
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		if _, err := sh.Sendrecv(r, nil, 0, Byte, to, barrierTag+k,
			nil, 0, Byte, from, barrierTag+k); err != nil {
			return err
		}
	}
	return nil
}

// linearBarrier is the LAM-style algorithm: fan-in to rank 0 and fan-out
// release, over visible MPI_Isend/MPI_Irecv/MPI_Waitall (this is also what
// makes LAM's MPI_Win_fence show message-passing synchronization time in
// Fig 24).
func (c *Comm) linearBarrier(r *Rank) error {
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	if n <= 1 {
		return nil
	}
	reqs := r.barrierReqs[:0]
	if c.RankOf(r) == 0 {
		for i := 1; i < n; i++ {
			rq, err := sh.Irecv(r, nil, 0, Byte, i, barrierTag)
			if err != nil {
				return err
			}
			reqs = append(reqs, rq)
		}
		reqs = r.waitallRecycle(reqs)
		for i := 1; i < n; i++ {
			rq, err := sh.Isend(r, nil, 0, Byte, i, barrierTag+1)
			if err != nil {
				return err
			}
			reqs = append(reqs, rq)
		}
		r.waitallRecycle(reqs)
		return nil
	}
	in, err := sh.Isend(r, nil, 0, Byte, 0, barrierTag)
	if err != nil {
		return err
	}
	out, err := sh.Irecv(r, nil, 0, Byte, 0, barrierTag+1)
	if err != nil {
		return err
	}
	r.waitallRecycle(append(reqs, in, out))
	return nil
}

// waitallRecycle is MPI_Waitall over requests the linear barrier posted for
// itself. Once all have completed they go back to the world's free list,
// under waitRecycle's rule, and the array becomes the rank's scratch again;
// it returns the array emptied. A rank killed while blocked never gets past
// Waitall, so its requests stay where they are.
func (r *Rank) waitallRecycle(reqs []*Request) []*Request {
	r.Waitall(reqs)
	for _, rq := range reqs {
		*rq = Request{}
	}
	r.w.freeReqs = append(r.w.freeReqs, reqs...)
	r.barrierReqs = reqs[:0]
	return r.barrierReqs
}

const (
	barrierTag = 1 << 20
	bcastTag   = 1<<20 + 100
	reduceTag  = 1<<20 + 200
)

// Bcast is MPI_Bcast: binomial-tree broadcast of count elements of dt from
// root. It returns the data at every rank. Probe args: (buffer, count,
// datatype, root, comm).
func (c *Comm) Bcast(r *Rank, data []byte, count int, dt Datatype, root int) ([]byte, error) {
	defer r.endMPI(r.beginMPI("MPI_Bcast", addr(data), num(count), dt.arg(), num(root), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	return c.bcastTree(r, data, count, dt, root, bcastTag)
}

// bcastTree is the binomial broadcast under Bcast, Allreduce and Allgather,
// over the shadow context. Counting ranks from root, a rank's parent is
// itself with its highest bit cleared and its children are itself with one
// higher bit set: every rank but root receives data from its parent, then
// forwards it to its children, nearest first.
func (c *Comm) bcastTree(r *Rank, data []byte, count int, dt Datatype, root, tag int) ([]byte, error) {
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	vrank := (c.RankOf(r) - root + n) % n
	mask := 1 // the lowest bit above vrank's highest
	for mask <= vrank {
		mask *= 2
	}
	if vrank != 0 {
		st, err := sh.Recv(r, nil, count, dt, (vrank-mask/2+root)%n, tag)
		if err != nil {
			return nil, err
		}
		data = st.Data()
	}
	for ; vrank+mask < n; mask *= 2 {
		if err := sh.Send(r, data, count, dt, (vrank+mask+root)%n, tag); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Reduce is MPI_Reduce: binomial fan-in combining float64 vectors under op;
// the combined vector is returned at root (nil elsewhere). Probe args:
// (sendbuf, recvbuf, count, datatype, op, root, comm).
func (c *Comm) Reduce(r *Rank, vals []float64, dt Datatype, op Op, root int) ([]float64, error) {
	defer r.endMPI(r.beginMPI("MPI_Reduce", addr(vals), none, num(len(vals)), dt.arg(), ref(op), num(root), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	return c.reduceInternal(r, vals, dt, op, root, reduceTag)
}

// reduceInternal runs the binomial fan-in over the shadow context.
func (c *Comm) reduceInternal(r *Rank, vals []float64, dt Datatype, op Op, root, tag int) ([]float64, error) {
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	me := c.RankOf(r)
	vrank := (me - root + n) % n
	acc := append([]float64(nil), vals...)
	count := len(vals)

	for mask := 1; mask < n; mask *= 2 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			err := sh.Send(r, floatsToBytes(acc), count, dt, parent, tag)
			return nil, err
		}
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			st, err := sh.Recv(r, make([]byte, 8*count), count, dt, child, tag)
			if err != nil {
				return nil, err
			}
			for i, v := range bytesToFloats(st.Data()) {
				if i < len(acc) {
					acc[i] = op.apply(acc[i], v)
				}
			}
		}
	}
	if me == root {
		return acc, nil
	}
	return nil, nil
}

// Allreduce is MPI_Allreduce, implemented as Reduce-to-0 + Bcast (as several
// real implementations do). Probe args: (sendbuf, recvbuf, count, datatype,
// op, comm).
func (c *Comm) Allreduce(r *Rank, vals []float64, dt Datatype, op Op) ([]float64, error) {
	defer r.endMPI(r.beginMPI("MPI_Allreduce", addr(vals), none, num(len(vals)), dt.arg(), ref(op), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)

	acc, err := c.reduceInternal(r, vals, dt, op, 0, reduceTag+1)
	if err != nil {
		return nil, err
	}
	var data []byte
	if c.RankOf(r) == 0 {
		data = floatsToBytes(acc)
	}
	if data, err = c.bcastTree(r, data, len(vals), dt, 0, bcastTag+1); err != nil {
		return nil, err
	}
	return bytesToFloats(data), nil
}

// floatsToBytes encodes a float64 vector little-endian.
func floatsToBytes(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// bytesToFloats decodes a little-endian float64 vector.
func bytesToFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
