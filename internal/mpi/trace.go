package mpi

import (
	"strconv"

	"pperf/internal/probe"
	"pperf/internal/sim"
)

// traceMeta extracts a call's trace metadata — peer rank, tag, payload
// bytes, and communicator/window name — from the probe argument list (which
// mirrors the C MPI signatures). Only called when tracing is enabled.
func traceMeta(name string, args []probe.Arg) (peer string, tag, bytes int, obj string) {
	intArg := func(i int) int {
		if i < len(args) {
			return args[i].Int
		}
		return 0
	}
	// sized is count × the datatype's size, for the count at i and the
	// datatype after it.
	sized := func(i int) int {
		if i+1 < len(args) {
			if dt, ok := args[i+1].Ref.(Datatype); ok {
				return intArg(i) * dt.Size()
			}
		}
		return 0
	}
	peerOf := func(rank int) string {
		if rank == AnySource {
			return "any"
		}
		return strconv.Itoa(rank)
	}
	switch name {
	case "MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Sendrecv":
		// (buf, count, datatype, peer, tag, ...) — Sendrecv's leading half
		// has the same shape.
		peer = peerOf(intArg(3))
		tag = intArg(4)
		bytes = sized(1)
	case "MPI_Put", "MPI_Get", "MPI_Accumulate":
		// (origin, count, datatype, target_rank, ...)
		peer = peerOf(intArg(3))
		bytes = sized(1)
	case "MPI_Bcast":
		// (buf, count, datatype, root, comm)
		bytes = sized(1)
	case "MPI_Reduce", "MPI_Allreduce":
		// (sendbuf, recvbuf, count, datatype, op, [root,] comm)
		bytes = sized(2)
	}
	for _, a := range args {
		switch v := a.Ref.(type) {
		case *Comm:
			if v != nil && obj == "" {
				obj = v.Name()
			}
		case *Win:
			if v != nil && obj == "" {
				obj = "win " + v.UniqueID()
			}
		}
	}
	return peer, tag, bytes, obj
}

// traceEdge records a happens-before edge on the destination rank's track.
// Callers must have checked w.Tracer != nil.
func (w *World) traceEdge(kind string, from, to *Rank, fromT, toT sim.Time, tag, bytes int, flow uint64, wait bool) {
	w.Tracer.Edge(kind, from.probes.Name(), to.probes.Name(), to.NodeName(), fromT, toT, tag, bytes, flow, wait)
}
