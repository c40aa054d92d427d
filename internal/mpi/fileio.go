package mpi

import (
	"fmt"

	"pperf/internal/sim"
)

// File-access modes for FileOpen.
const (
	ModeRDOnly = 1 << iota
	ModeWROnly
	ModeRDWR
	ModeCreate
)

// File is an MPI-I/O file handle. MPI-I/O here is deliberately small — the
// paper discusses it as a tool-support concern (§3) but evaluates RMA, spawn
// and naming; this implementation exists so the tool's I/O metrics have a
// first-class MPI-I/O source in addition to socket time.
type File struct {
	comm  *Comm
	name  string
	amode int
	open  bool
}

// FileOpen is MPI_File_open: collective over comm. Probe args mirror C MPI:
// (comm, filename, amode, info, fh) — the file handle is visible at the
// return probe.
func (c *Comm) FileOpen(r *Rank, filename string, amode int, info Info) (*File, error) {
	defer r.endMPI(r.beginMPI("MPI_File_open", c, filename, amode, info, nil))
	c.setup.meet(r, "MPI_File_open", nil)
	r.IdleWait(c.w.Impl.IOLatency)
	fl := &File{comm: c, name: filename, amode: amode, open: true}
	r.probes.SetArg(4, fl)
	return fl, nil
}

// WriteAt is MPI_File_write_at: write count elements of dt at the given
// offset. The wall time spent here is I/O blocking time, not CPU. Probe
// args: (file, offset, buf, count, datatype).
func (fl *File) WriteAt(r *Rank, offset int64, buf []byte, count int, dt Datatype) error {
	defer r.endMPI(r.beginMPI("MPI_File_write_at", fl, offset, buf, count, dt))
	if err := fl.check("MPI_File_write_at"); err != nil {
		return err
	}
	bytes := count * dt.Size()
	r.IdleWait(fl.ioTime(bytes))
	return nil
}

// ReadAt is MPI_File_read_at. Probe args: (file, offset, buf, count,
// datatype).
func (fl *File) ReadAt(r *Rank, offset int64, buf []byte, count int, dt Datatype) error {
	defer r.endMPI(r.beginMPI("MPI_File_read_at", fl, offset, buf, count, dt))
	if err := fl.check("MPI_File_read_at"); err != nil {
		return err
	}
	bytes := count * dt.Size()
	r.IdleWait(fl.ioTime(bytes))
	return nil
}

// Close is MPI_File_close: collective. Probe args: (file).
func (fl *File) Close(r *Rank) error {
	defer r.endMPI(r.beginMPI("MPI_File_close", fl))
	if err := fl.check("MPI_File_close"); err != nil {
		return err
	}
	fl.comm.setup.meet(r, "MPI_File_close", nil)
	fl.open = false
	return nil
}

func (fl *File) ioTime(bytes int) sim.Duration {
	im := fl.comm.w.Impl
	return im.IOLatency + sim.Duration(float64(bytes)/im.IOBandwidth*float64(sim.Second))
}

func (fl *File) check(op string) error {
	if !fl.open {
		return fmt.Errorf("mpi: %s on closed file %q", op, fl.name)
	}
	return nil
}
