package mpi

// Message probing: MPI_Probe, MPI_Iprobe and MPI_Get_count. Programs like
// wrong-way's defensive variants use these to inspect pending messages
// before posting receives; the blocking probe accrues synchronization
// waiting time like a receive.

// Status describes a pending or received message.
type Status struct {
	Source int
	Tag    int
	bytes  int
	data   []byte // received payload; nil for a probed message
}

// Data returns the received payload (nil for a probe or a synthetic payload).
func (st Status) Data() []byte { return st.data }

// GetCount is MPI_Get_count: the element count of the message in dt units
// (-1 if the byte count is not divisible, mirroring MPI_UNDEFINED).
func (st Status) GetCount(dt Datatype) int {
	if sz := dt.Size(); sz > 0 && st.bytes%sz == 0 {
		return st.bytes / sz
	}
	return -1
}

// Iprobe is MPI_Iprobe: a non-blocking check for a matching pending
// message. Probe args: (source, tag, comm, flag, status).
func (c *Comm) Iprobe(r *Rank, src, tag int) (bool, *Status, error) {
	defer r.endMPI(r.beginMPI("MPI_Iprobe", num(src), num(tag), ref(c), none, none))
	r.SystemCompute(c.w.Impl.Cost.RecvOverhead / 4)
	p, err := c.pattern(r, src, tag)
	if err != nil {
		return false, nil, err
	}
	if m, _ := r.unexpected.first(p.matches); m != nil {
		return true, &Status{Source: m.srcRank, Tag: m.tag, bytes: m.bytes}, nil
	}
	return false, nil, nil
}

// ProbeMsg is MPI_Probe: block until a matching message is pending, without
// receiving it. Probe args: (source, tag, comm, status).
func (c *Comm) ProbeMsg(r *Rank, src, tag int) (*Status, error) {
	defer r.endMPI(r.beginMPI("MPI_Probe", num(src), num(tag), ref(c), none))
	r.SystemCompute(c.w.Impl.Cost.RecvOverhead / 4)
	p, err := c.pattern(r, src, tag)
	if err != nil {
		return nil, err
	}
	r.enterLibraryWait()
	defer r.exitLibraryWait()
	for {
		if m, _ := r.unexpected.first(p.matches); m != nil {
			return &Status{Source: m.srcRank, Tag: m.tag, bytes: m.bytes}, nil
		}
		r.block("MPI_Probe")
	}
}
