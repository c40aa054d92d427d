// Package mpi implements a simulated MPI-1/MPI-2 runtime: communicators,
// point-to-point messaging with eager and rendezvous protocols, collectives,
// one-sided communication (RMA), dynamic process creation, object naming,
// and basic MPI-I/O — running on the deterministic virtual-time cluster of
// internal/sim and internal/cluster.
//
// The runtime stands in for the LAM/MPI, MPICH and MPICH2 implementations
// the paper measures. Three "implementation personalities" reproduce the
// observable differences between them (see impl.go). Every MPI routine is
// routed through the probe layer so the performance tool can dynamically
// instrument it, exactly as Paradyn instruments the real libraries.
package mpi

import "fmt"

// Datatype is an MPI basic datatype. Only the handful the paper's programs
// use are defined; Size is what the rma_*_bytes metrics multiply by (their
// MDL calls MPI_Type_size on the probe's datatype argument).
type Datatype int

const (
	Byte Datatype = iota
	Char
	Int
	Float
	Double
)

// Size returns the datatype's size in bytes, as MPI_Type_size would.
func (d Datatype) Size() int {
	switch d {
	case Byte, Char:
		return 1
	case Int, Float:
		return 4
	case Double:
		return 8
	default:
		panic(fmt.Sprintf("mpi: unknown datatype %d", int(d)))
	}
}

// String returns the MPI constant name.
func (d Datatype) String() string {
	switch d {
	case Byte:
		return "MPI_BYTE"
	case Char:
		return "MPI_CHAR"
	case Int:
		return "MPI_INT"
	case Float:
		return "MPI_FLOAT"
	case Double:
		return "MPI_DOUBLE"
	default:
		return fmt.Sprintf("MPI_DATATYPE(%d)", int(d))
	}
}

// Op is a reduction operation for Reduce/Allreduce/Accumulate.
type Op int

const (
	OpSum Op = iota
	OpMax
	OpMin
	OpReplace // MPI_REPLACE, valid only for Accumulate
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "MPI_SUM"
	case OpMax:
		return "MPI_MAX"
	case OpMin:
		return "MPI_MIN"
	case OpReplace:
		return "MPI_REPLACE"
	default:
		return fmt.Sprintf("MPI_OP(%d)", int(o))
	}
}

// apply combines two float64 values under the op.
func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpReplace:
		return b
	default:
		panic("mpi: bad op")
	}
}

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Info is the MPI-2 Info object: implementation hints as key/value pairs.
// LAM honours its lam_spawn_file key for spawn placement (§4.2.2).
type Info map[string]string
