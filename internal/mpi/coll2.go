package mpi

// Additional collectives and point-to-point modes rounding out the MPI-1
// surface real applications use: synchronous-mode send, gather/scatter,
// allgather, and all-to-all. Like the core collectives they run over the
// shadow context through traced point-to-point calls, so the tool observes
// their internals.

const (
	gatherTag   = 1<<20 + 300
	scatterTag  = 1<<20 + 400
	alltoallTag = 1<<20 + 500
)

// Ssend is MPI_Ssend: synchronous-mode send — it completes only when the
// matching receive has started, regardless of message size (i.e. it always
// uses the rendezvous path). Probe args match MPI_Send.
func (c *Comm) Ssend(r *Rank, data []byte, count int, dt Datatype, dest, tag int) error {
	defer r.endMPI(r.beginMPI("MPI_Ssend", addr(data), num(count), dt.arg(), num(dest), num(tag), ref(c)))
	r.SystemCompute(c.w.Impl.Cost.SendOverhead)
	rq, err := r.isendInternal(c, dest, tag, count, dt, data, true)
	if err != nil {
		return err
	}
	r.waitRecycle(rq)
	return nil
}

// Gather is MPI_Gather: every rank contributes count elements; the root
// returns the concatenation in rank order (nil elsewhere). Probe args:
// (sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, comm).
func (c *Comm) Gather(r *Rank, data []byte, count int, dt Datatype, root int) ([]byte, error) {
	defer r.endMPI(r.beginMPI("MPI_Gather", addr(data), num(count), dt.arg(), none, num(count), dt.arg(), num(root), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	return c.gatherTo(r, data, count, dt, root, gatherTag)
}

// gatherTo is the linear gather under Gather and Allgather, over the shadow
// context: every other rank sends its contribution to root, which receives
// them in rank order.
func (c *Comm) gatherTo(r *Rank, data []byte, count int, dt Datatype, root, tag int) ([]byte, error) {
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	me := c.RankOf(r)
	width := count * dt.Size()
	if me != root {
		return nil, sh.Send(r, padTo(data, width), count, dt, root, tag)
	}
	out := make([]byte, width*n)
	copy(out[width*me:], padTo(data, width))
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		st, err := sh.Recv(r, nil, count, dt, i, tag)
		if err != nil {
			return nil, err
		}
		copy(out[width*i:], st.Data())
	}
	return out, nil
}

// Scatter is MPI_Scatter: the root distributes consecutive count-element
// slices of data to each rank; everyone returns their slice. Probe args:
// (sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, comm).
func (c *Comm) Scatter(r *Rank, data []byte, count int, dt Datatype, root int) ([]byte, error) {
	defer r.endMPI(r.beginMPI("MPI_Scatter", addr(data), num(count), dt.arg(), none, num(count), dt.arg(), num(root), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	me := c.RankOf(r)
	width := count * dt.Size()
	if me == root {
		data = padTo(data, width*n)
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			if err := sh.Send(r, data[width*i:width*(i+1)], count, dt, i, scatterTag); err != nil {
				return nil, err
			}
		}
		return data[width*me : width*(me+1)], nil
	}
	st, err := sh.Recv(r, nil, count, dt, root, scatterTag)
	if err != nil {
		return nil, err
	}
	return st.Data(), nil
}

// Allgather is MPI_Allgather: Gather to rank 0 followed by Bcast, the
// straightforward implementation. Probe args: (sendbuf, sendcount,
// sendtype, recvbuf, recvcount, recvtype, comm).
func (c *Comm) Allgather(r *Rank, data []byte, count int, dt Datatype) ([]byte, error) {
	defer r.endMPI(r.beginMPI("MPI_Allgather", addr(data), num(count), dt.arg(), none, num(count), dt.arg(), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	gathered, err := c.gatherTo(r, data, count, dt, 0, gatherTag+2)
	if err != nil {
		return nil, err
	}
	return c.bcastTree(r, gathered, count*len(c.localGroup(r)), dt, 0, gatherTag+1)
}

// Alltoall is MPI_Alltoall: rank i's slice j goes to rank j's slot i,
// pairwise-exchanged with Sendrecv. Probe args: (sendbuf, sendcount,
// sendtype, recvbuf, recvcount, recvtype, comm).
func (c *Comm) Alltoall(r *Rank, data []byte, count int, dt Datatype) ([]byte, error) {
	defer r.endMPI(r.beginMPI("MPI_Alltoall", addr(data), num(count), dt.arg(), none, num(count), dt.arg(), ref(c)))
	r.SystemCompute(c.w.Impl.CollectiveOverhead)
	sh := c.shadowComm()
	n := len(c.localGroup(r))
	me := c.RankOf(r)
	width := count * dt.Size()
	data = padTo(data, width*n)
	out := make([]byte, width*n)
	copy(out[width*me:], data[width*me:width*(me+1)])
	// Pairwise exchange: in step k, exchange with me^k fails for non-power
	// sizes, so use the rotation schedule (me+k, me-k).
	for k := 1; k < n; k++ {
		to := (me + k) % n
		from := (me - k + n) % n
		st, err := sh.Sendrecv(r, data[width*to:width*(to+1)], count, dt, to, alltoallTag+k,
			nil, count, dt, from, alltoallTag+k)
		if err != nil {
			return nil, err
		}
		copy(out[width*from:], st.Data())
	}
	return out, nil
}

// padTo returns data extended with zeros to exactly n bytes (synthetic
// payloads may be nil or short).
func padTo(data []byte, n int) []byte {
	if len(data) >= n {
		return data[:n]
	}
	out := make([]byte, n)
	copy(out, data)
	return out
}

// Wtime is MPI_Wtime: the process's wall clock in seconds.
func (r *Rank) Wtime() float64 { return r.Now().Seconds() }

// Wtick is MPI_Wtime's resolution (one virtual nanosecond).
func (r *Rank) Wtick() float64 { return 1e-9 }

// ProcessorName is MPI_Get_processor_name: the node hostname.
func (r *Rank) ProcessorName() string { return r.NodeName() }
