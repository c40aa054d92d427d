// Package cluster models the Linux cluster the paper's experiments ran on: a
// set of nodes with one or more CPUs, connected by a network whose cost is
// asymmetric between intra-node (shared memory / sysv) and inter-node (TCP)
// communication. It also implements the process-placement logic of the two
// MPI launchers the paper supports — LAM's mpirun notation (-np, N, C,
// nR[,R]*, cR[,R]* and mixtures, §4.1.2) and MPICH's machinefile-based
// mpirun (-m, -wdir, §4.1.1) — plus the LAM boot schema and MPICH machine
// file formats.
package cluster

import (
	"fmt"
	"strings"

	"pperf/internal/sim"
)

// Node is one machine in the cluster.
type Node struct {
	Name string
	CPUs int
}

// Spec describes a cluster: its nodes in boot-schema order. Node indexing
// follows the order nodes are listed in the machine file, as LAM defines.
type Spec struct {
	Nodes []Node
	// SharedFS reports whether the nodes share a filesystem. When false,
	// daemon definitions must carry the MPI implementation attribute so the
	// tool can start daemons without a generated script (§4.1).
	SharedFS bool
}

// NumNodes returns the number of nodes.
func (s *Spec) NumNodes() int { return len(s.Nodes) }

// NumCPUs returns the total CPU count across all nodes.
func (s *Spec) NumCPUs() int {
	n := 0
	for _, nd := range s.Nodes {
		n += nd.CPUs
	}
	return n
}

// CPUToNode maps a global CPU index (LAM's processor numbering: node 0's
// CPUs first, then node 1's, ...) to a node index. It returns -1 if the CPU
// index is out of range.
func (s *Spec) CPUToNode(cpu int) int {
	for i, nd := range s.Nodes {
		if cpu < nd.CPUs {
			return i
		}
		cpu -= nd.CPUs
	}
	return -1
}

// Placement is the node assignment for one MPI process.
type Placement struct {
	Rank int
	Node int // index into Spec.Nodes
}

// CostModel gives the virtual-time costs of computation and communication.
// Each MPI implementation personality carries its own instance, which is how
// the simulation reproduces behavioural differences such as MPICH ch_p4mpd
// using sockets even intra-node (no SMP support, §5.1.2).
type CostModel struct {
	// IntraNodeLatency/Bandwidth apply between ranks on the same node.
	IntraNodeLatency   sim.Duration
	IntraNodeBandwidth float64 // bytes per second
	// InterNodeLatency/Bandwidth apply between ranks on different nodes.
	InterNodeLatency   sim.Duration
	InterNodeBandwidth float64
	// EagerThreshold is the message size (bytes) above which the rendezvous
	// protocol is used: the sender blocks until the receiver has posted a
	// matching receive.
	EagerThreshold int
	// FlowCreditBytes bounds the eager payload bytes (plus per-message
	// header) in flight from one sender to one receiver before the sender
	// blocks, modelling the finite shared-memory FIFO / socket buffer.
	// Credits return when the receiver consumes a message, or immediately
	// when the receiver is blocked inside the MPI library and so is
	// draining its transport (which is why wrong-way completes while
	// small-messages' clients stall in MPI_Send).
	FlowCreditBytes int
	// MsgHeaderBytes is the per-message envelope charge against the flow
	// window.
	MsgHeaderBytes int
	// SendOverhead/RecvOverhead are per-call CPU costs of the library.
	SendOverhead sim.Duration
	RecvOverhead sim.Duration
	// RMAOverhead is the per-call CPU cost of Put/Get/Accumulate.
	RMAOverhead sim.Duration
}

// LinkParams returns the base latency and bandwidth applying between the
// given nodes (intra- vs inter-node).
func (c *CostModel) LinkParams(fromNode, toNode int) (sim.Duration, float64) {
	if fromNode == toNode {
		return c.IntraNodeLatency, c.IntraNodeBandwidth
	}
	return c.InterNodeLatency, c.InterNodeBandwidth
}

// MsgTime returns the network transit duration for a message of size bytes
// between the given nodes.
func (c *CostModel) MsgTime(fromNode, toNode, bytes int) sim.Duration {
	lat, bw := c.LinkParams(fromNode, toNode)
	return lat + sim.Duration(float64(bytes)/bw*float64(sim.Second))
}

// DefaultSpec returns a cluster like the paper's testbed slices: nNodes
// nodes with cpusPerNode CPUs each and no shared filesystem.
func DefaultSpec(nNodes, cpusPerNode int) *Spec {
	s := &Spec{SharedFS: false}
	for i := 0; i < nNodes; i++ {
		s.Nodes = append(s.Nodes, Node{
			Name: fmt.Sprintf("node%d", i),
			CPUs: cpusPerNode,
		})
	}
	return s
}

// String renders the spec as a LAM boot schema.
func (s *Spec) String() string {
	var b strings.Builder
	for _, nd := range s.Nodes {
		fmt.Fprintf(&b, "%s cpu=%d\n", nd.Name, nd.CPUs)
	}
	return b.String()
}
