package mpi

import (
	"fmt"
	"strings"

	"pperf/internal/cluster"
	"pperf/internal/sim"
)

// ImplKind identifies which real MPI implementation a personality models.
type ImplKind int

const (
	// LAM models LAM/MPI 7.0 with the sysv RPI (shared memory intra-node).
	LAM ImplKind = iota
	// MPICH models MPICH 1.2.x with the ch_p4mpd device: socket
	// communication even between ranks on one node (no SMP support), PMPI
	// weak-symbol name resolution.
	MPICH
	// MPICH2 models the MPICH2 0.96p2 beta with the sock channel and mpd
	// process manager: most of MPI-2 but no full dynamic process creation.
	MPICH2
	// Reference is a fourth personality modelling a complete MPI-2
	// implementation, including passive-target RMA, which neither LAM nor
	// MPICH2 supported at the time of the paper. It exists so the
	// passive-target metrics can be exercised (a paper "future work" item).
	Reference
)

func (k ImplKind) String() string {
	switch k {
	case LAM:
		return "LAM/MPI"
	case MPICH:
		return "MPICH"
	case MPICH2:
		return "MPICH2"
	case Reference:
		return "Reference"
	default:
		return "unknown"
	}
}

// ParseImpl returns the kind an implementation name spells, in any case:
// every name String prints, and the short forms lam and ref. It is the one
// reader of these names — pperf's -impl flag and a PCL daemon's
// mpi_implementation attribute both go through it.
func ParseImpl(name string) (ImplKind, error) {
	switch strings.ToLower(name) {
	case "lam", "lam/mpi":
		return LAM, nil
	case "mpich":
		return MPICH, nil
	case "mpich2":
		return MPICH2, nil
	case "reference", "ref":
		return Reference, nil
	}
	return 0, fmt.Errorf("unknown MPI implementation %q (lam | mpich | mpich2 | reference)", name)
}

// Impl is an MPI implementation personality: a cost model plus the
// behavioural switches that make the tool's findings differ between
// implementations, as they do throughout the paper's Section 5.
type Impl struct {
	Kind ImplKind
	// LibModule is the module name MPI functions appear under in the Code
	// resource hierarchy.
	LibModule string
	// UsesPMPINames: with MPICH's default weak-symbol configuration, the
	// symbols in the binary resolve to the PMPI_* names (§4.1.1), so the
	// tool observes PMPI_Send rather than MPI_Send.
	UsesPMPINames bool
	// SocketIO: the implementation's transport blocks in read/write socket
	// calls, so message waiting also shows up as I/O blocking time (what
	// makes ExcessiveIOBlockingTime test true for MPICH in Fig. 3).
	SocketIO bool
	// BarrierViaSendrecv: MPI_Barrier is implemented as a collective
	// communication over MPI_Sendrecv (MPICH), visible to the tool (Fig 9).
	// When false, Barrier is a linear fan-in/fan-out over visible
	// MPI_Isend/MPI_Irecv/MPI_Waitall (LAM).
	BarrierViaSendrecv bool
	// FenceViaBarrier: MPI_Win_fence internally calls MPI_Barrier (LAM;
	// gives Oned its /SyncObject/Barrier finding, Fig 22).
	FenceViaBarrier bool
	// BlockingWinStart: MPI_Win_start blocks until matching MPI_Win_post
	// calls execute (the MPI-2 standard allows either; which routine blocks
	// differs between LAM and MPICH2, §5.2.1.1).
	BlockingWinStart bool
	// SupportsSpawn: MPICH2 0.96p2 beta did not fully support dynamic
	// process creation (§5.2.2).
	SupportsSpawn bool
	// SupportsPassiveTarget: neither LAM nor MPICH2 supported passive
	// target synchronization at the time (§5.2.1.1).
	SupportsPassiveTarget bool
	// ReusesWindowIDs: the implementation reuses a window identifier after
	// MPI_Win_free, which is why the tool's resource hierarchy must qualify
	// window ids as N-M pairs (§4.2.1).
	ReusesWindowIDs bool
	// WinNameInComm: LAM stores RMA window names in the communicator
	// structure inside its MPI_Win, so a named window also surfaces under
	// /SyncObject/Message (Fig 23).
	WinNameInComm bool

	// Cost is the communication/computation cost model.
	Cost cluster.CostModel
	// SpawnBase and SpawnPerProc are the process-creation overheads of
	// MPI_Comm_spawn.
	SpawnBase    sim.Duration
	SpawnPerProc sim.Duration
	// CollectiveOverhead is the per-call bookkeeping cost of collectives
	// and window creation.
	CollectiveOverhead sim.Duration
	// IOBandwidth and IOLatency model the filesystem for MPI-I/O.
	IOBandwidth float64
	IOLatency   sim.Duration
}

// NewImpl returns the personality for the given implementation kind, with
// the cost-model constants used across the reproduction's experiments.
func NewImpl(kind ImplKind) *Impl {
	// Constants are sized for the paper's 2004-era cluster: tens of
	// microseconds of per-call library overhead, ~100 MB/s TCP, sub-GB/s
	// shared memory.
	base := cluster.CostModel{
		IntraNodeLatency:   8 * sim.Microsecond,
		IntraNodeBandwidth: 800e6,
		InterNodeLatency:   60 * sim.Microsecond,
		InterNodeBandwidth: 100e6,
		EagerThreshold:     64 * 1024,
		FlowCreditBytes:    64 * 1024,
		MsgHeaderBytes:     64,
		SendOverhead:       25 * sim.Microsecond,
		RecvOverhead:       25 * sim.Microsecond,
		RMAOverhead:        30 * sim.Microsecond,
	}
	im := &Impl{
		Kind:               kind,
		Cost:               base,
		SpawnBase:          30 * sim.Millisecond,
		SpawnPerProc:       12 * sim.Millisecond,
		CollectiveOverhead: 20 * sim.Microsecond,
		IOBandwidth:        60e6,
		IOLatency:          200 * sim.Microsecond,
	}
	switch kind {
	case LAM:
		im.LibModule = "liblammpi.so"
		im.BarrierViaSendrecv = false
		im.FenceViaBarrier = true
		im.BlockingWinStart = true
		im.SupportsSpawn = true
		im.SupportsPassiveTarget = false
		im.ReusesWindowIDs = true
		im.WinNameInComm = true
	case MPICH:
		im.LibModule = "libmpich.so"
		im.UsesPMPINames = true
		im.SocketIO = true
		im.BarrierViaSendrecv = true
		im.SupportsSpawn = false // ch_p4mpd is MPI-1 only
		// ch_p4mpd has no SMP support: intra-node goes over sockets too.
		im.Cost.IntraNodeLatency = 45 * sim.Microsecond
		im.Cost.IntraNodeBandwidth = 150e6
		im.Cost.SendOverhead = 35 * sim.Microsecond
		im.Cost.RecvOverhead = 35 * sim.Microsecond
	case MPICH2:
		im.LibModule = "libmpich2.so"
		im.SocketIO = true
		im.BarrierViaSendrecv = true
		im.BlockingWinStart = false
		im.SupportsSpawn = false
		im.SupportsPassiveTarget = false
		im.ReusesWindowIDs = true
		im.Cost.IntraNodeLatency = 35 * sim.Microsecond
		im.Cost.IntraNodeBandwidth = 200e6
	case Reference:
		im.LibModule = "libmpiref.so"
		im.BarrierViaSendrecv = true
		im.SupportsSpawn = true
		im.SupportsPassiveTarget = true
		im.ReusesWindowIDs = true
	}
	return im
}
