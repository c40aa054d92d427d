package mpi

// --- internal (untraced) primitives --------------------------------------
//
// The traced MPI routines below are thin wrappers over these. Collectives
// also build on them (over the communicator's shadow context), so that only
// the routines the paper's tool would see through its instrumentation fire
// probes.

// isendInternal starts a send of bytes to dst (a rank number resolved
// against comm from r's perspective). A synchronous send takes the
// rendezvous path whatever its size.
func (r *Rank) isendInternal(comm *Comm, dst, tag, count int, dt Datatype, data []byte, synchronous bool) (*Request, error) {
	peer, err := comm.peer(r, dst)
	if err != nil {
		return nil, err
	}
	bytes := count * dt.Size()
	rq := r.w.newRequest(Request{
		owner: r, isSend: true, dst: peer, bytes: bytes, data: data,
		rendezvous: synchronous || bytes > r.w.Impl.Cost.EagerThreshold,
		envelope:   envelope{commID: comm.id, srcRank: comm.RankOf(r), tag: tag},
	})
	// A send to peer still waiting for window space goes first, and so
	// everything sent after it waits too (per-pair FIFO); so does an eager
	// send with no window space (finite eager buffering — this is where
	// small-messages' clients accumulate MPI_Send waiting time).
	if _, queued := r.pendingSends.first(func(q *Request) bool { return q.dst == peer }); queued >= 0 {
		r.pendingSends.push(rq)
	} else if _, started := r.start(rq, r.Now()); !started {
		r.pendingSends.push(rq)
	}
	return rq, nil
}

// irecvInternal posts a receive for pattern (src, tag) on comm.
func (r *Rank) irecvInternal(comm *Comm, src, tag int, buf []byte) (*Request, error) {
	p, err := comm.pattern(r, src, tag)
	if err != nil {
		return nil, err
	}
	rq := r.w.newRequest(Request{owner: r, envelope: p, buf: buf})
	if m, i := r.unexpected.first(p.matches); i >= 0 {
		r.unexpected.remove(i)
		// The message was already queued when the receive was posted — the
		// receiver never blocked on it, so the edge is not a wait edge.
		m.match(rq, r.Now(), false)
		return rq, nil
	}
	r.posted.push(rq)
	return rq, nil
}

// waitInternal blocks until the request completes. For personalities whose
// transport blocks in socket system calls, the waiting portion is wrapped in
// a visible read/write call, which is how MPICH's message waiting also
// accrues I/O blocking time (§5.1.2).
func (r *Rank) waitInternal(rq *Request) {
	if rq.done && rq.completeAt <= r.Now() {
		return
	}
	if r.w.Impl.SocketIO {
		name := "read"
		if rq.isSend {
			name = "write"
		}
		f := r.w.Impl.fn(name)
		r.probes.Enter(f)
		defer r.probes.Leave(f)
	}
	r.enterLibraryWait()
	defer r.exitLibraryWait()
	for !rq.done {
		r.block((*waitingOn)(rq))
	}
}

// waitRecycle is waitInternal for a blocking call's own request, which then
// goes back to the world's free list: complete, nothing holds it any more. A
// rank killed while blocked unwinds out of waitInternal and never gets here.
func (r *Rank) waitRecycle(rq *Request) (st Status) {
	r.waitInternal(rq)
	st, *rq = rq.status, Request{}
	r.w.freeReqs = append(r.w.freeReqs, rq)
	return st
}

// --- traced point-to-point API --------------------------------------------

// Send is MPI_Send: blocking standard-mode send of count elements of dt.
// data may be nil for synthetic payloads. Argument positions in the fired
// probe mirror C MPI: (buf, count, datatype, dest, tag, comm).
func (c *Comm) Send(r *Rank, data []byte, count int, dt Datatype, dest, tag int) error {
	defer r.endMPI(r.beginMPI("MPI_Send", addr(data), num(count), dt.arg(), num(dest), num(tag), ref(c)))
	r.SystemCompute(c.w.Impl.Cost.SendOverhead)
	rq, err := r.isendInternal(c, dest, tag, count, dt, data, false)
	if err != nil {
		return err
	}
	r.waitRecycle(rq)
	return nil
}

// Recv is MPI_Recv: blocking receive. src may be AnySource, tag AnyTag.
// Probe args: (buf, count, datatype, source, tag, comm).
func (c *Comm) Recv(r *Rank, buf []byte, count int, dt Datatype, src, tag int) (Status, error) {
	defer r.endMPI(r.beginMPI("MPI_Recv", addr(buf), num(count), dt.arg(), num(src), num(tag), ref(c)))
	r.SystemCompute(c.w.Impl.Cost.RecvOverhead)
	rq, err := r.irecvInternal(c, src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	return r.waitRecycle(rq), nil
}

// Isend is MPI_Isend: nonblocking send; complete with Wait.
func (c *Comm) Isend(r *Rank, data []byte, count int, dt Datatype, dest, tag int) (*Request, error) {
	defer r.endMPI(r.beginMPI("MPI_Isend", addr(data), num(count), dt.arg(), num(dest), num(tag), ref(c)))
	r.SystemCompute(c.w.Impl.Cost.SendOverhead)
	return r.isendInternal(c, dest, tag, count, dt, data, false)
}

// Irecv is MPI_Irecv: nonblocking receive; complete with Wait.
func (c *Comm) Irecv(r *Rank, buf []byte, count int, dt Datatype, src, tag int) (*Request, error) {
	defer r.endMPI(r.beginMPI("MPI_Irecv", addr(buf), num(count), dt.arg(), num(src), num(tag), ref(c)))
	r.SystemCompute(c.w.Impl.Cost.RecvOverhead)
	return r.irecvInternal(c, src, tag, buf)
}

// Wait is MPI_Wait.
func (r *Rank) Wait(rq *Request) {
	defer r.endMPI(r.beginMPI("MPI_Wait", ref(rq)))
	r.waitInternal(rq)
}

// Test is MPI_Test: non-blocking completion check of a request.
func (r *Rank) Test(rq *Request) bool {
	defer r.endMPI(r.beginMPI("MPI_Test", ref(rq), none))
	return rq.done && rq.completeAt <= r.Now()
}

// Waitall is MPI_Waitall.
func (r *Rank) Waitall(rqs []*Request) {
	defer r.endMPI(r.beginMPI("MPI_Waitall", num(len(rqs)), addr(rqs)))
	for _, rq := range rqs {
		r.waitInternal(rq)
	}
}

// Sendrecv is MPI_Sendrecv: a simultaneous send and receive, deadlock-free.
// Probe args mirror C MPI: (sendbuf, sendcount, sendtype, dest, sendtag,
// recvbuf, recvcount, recvtype, source, recvtag, comm).
func (c *Comm) Sendrecv(r *Rank, sdata []byte, scount int, sdt Datatype, dest, stag int,
	rbuf []byte, rcount int, rdt Datatype, src, rtag int) (Status, error) {
	defer r.endMPI(r.beginMPI("MPI_Sendrecv", addr(sdata), num(scount), sdt.arg(), num(dest), num(stag),
		addr(rbuf), num(rcount), rdt.arg(), num(src), num(rtag), ref(c)))
	r.SystemCompute(c.w.Impl.Cost.SendOverhead + c.w.Impl.Cost.RecvOverhead)
	rrq, err := r.irecvInternal(c, src, rtag, rbuf)
	if err != nil {
		return Status{}, err
	}
	srq, err := r.isendInternal(c, dest, stag, scount, sdt, sdata, false)
	if err != nil {
		return Status{}, err
	}
	r.waitRecycle(srq)
	return r.waitRecycle(rrq), nil
}
