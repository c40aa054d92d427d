package mpi

import "fmt"

// Comm is a communicator. Intracommunicators have only a local group;
// intercommunicators (from MPI_Comm_spawn) also carry a remote group, and
// sends address ranks of the remote group as MPI requires.
type Comm struct {
	w      *World
	id     int
	name   string
	local  []*Rank
	remote []*Rank // nil for intracommunicators

	// shadow is the hidden communication context collectives use, so that
	// their internal messages can never match user receives (the simulated
	// equivalent of MPI context ids).
	shadow *Comm

	// The rounds of the setup collectives. Each family has its own instance,
	// so ranks that call routines of different families deadlock instead of
	// matching each other.
	setup rendezvous // MPI_Init, MPI_Win_create, MPI_Comm_spawn, MPI_File_open/close
	ops   rendezvous // MPI_Comm_dup, MPI_Comm_split
	fin   rendezvous // MPI_Finalize
	merge rendezvous // MPI_Intercomm_merge, over both groups
}

// ID returns the communicator id the implementation assigned.
func (c *Comm) ID() int { return c.id }

// Name returns the user-assigned name (MPI_Comm_set_name), or a default
// derived from the id.
func (c *Comm) Name() string {
	if c.name != "" {
		return c.name
	}
	return fmt.Sprintf("comm-%d", c.id)
}

// Size returns the local group size.
func (c *Comm) Size() int { return len(c.local) }

// RemoteSize returns the remote group size (0 for intracommunicators).
func (c *Comm) RemoteSize() int { return len(c.remote) }

// RankOf returns r's rank in the communicator's local group, or its rank in
// the remote group for the other side of an intercommunicator. Returns -1
// if r is not a member.
func (c *Comm) RankOf(r *Rank) int {
	for i, m := range c.local {
		if m == r {
			return i
		}
	}
	for i, m := range c.remote {
		if m == r {
			return i
		}
	}
	return -1
}

// peer resolves a destination/source rank number from r's perspective: the
// local group for intracommunicators, the opposite group for
// intercommunicators.
func (c *Comm) peer(r *Rank, rank int) (*Rank, error) {
	group := c.local
	if c.remote != nil && c.inLocal(r) {
		group = c.remote
	}
	if rank < 0 || rank >= len(group) {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d) on %s", rank, len(group), c.Name())
	}
	return group[rank], nil
}

// localGroup returns the group r belongs to within this communicator.
func (c *Comm) localGroup(r *Rank) []*Rank {
	if c.remote == nil || c.inLocal(r) {
		return c.local
	}
	return c.remote
}

// inLocal reports whether r is a member of the local group.
func (c *Comm) inLocal(r *Rank) bool {
	for _, m := range c.local {
		if m == r {
			return true
		}
	}
	return false
}

// shadowComm returns (creating once) the hidden collective context. Its
// creation is reported to resource hooks: tools observe the implementation-
// internal communicator collectives run over, which is how the paper's PC
// identified the communicator behind MPICH's barrier traffic (Fig 9).
func (c *Comm) shadowComm() *Comm {
	if c.shadow == nil {
		c.shadow = c.w.newComm(c.local, c.remote)
		c.shadow.name = fmt.Sprintf("%s (internal)", c.Name())
		if len(c.local) > 0 {
			c.w.fireCommCreated(c.local[0], c.shadow)
		}
	}
	return c.shadow
}

// Merge is MPI_Intercomm_merge: collectively combines an
// intercommunicator's two groups into one intracommunicator (what
// spawnwinSync needs to create an RMA window spanning parent and child
// processes). The group of the side calling with high=false comes first in
// the new ranking; the first arrival orders the groups by its own flag.
func (c *Comm) Merge(r *Rank, high bool) (*Comm, error) {
	flag := 0 // C's int high
	if high {
		flag = 1
	}
	defer r.endMPI(r.beginMPI("MPI_Intercomm_merge", ref(c), num(flag), none))
	if c.remote == nil {
		return nil, fmt.Errorf("mpi: MPI_Intercomm_merge on intracommunicator %s", c.Name())
	}
	merged := c.merge.meet(r, "MPI_Intercomm_merge", func(v any, _ bool) any {
		if v != nil {
			return v
		}
		low, hi := c.local, c.remote
		if c.inLocal(r) == high {
			low, hi = hi, low
		}
		m := c.w.newComm(append(append(make([]*Rank, 0, len(low)+len(hi)), low...), hi...), nil)
		m.name = fmt.Sprintf("merged-%d", m.id)
		c.w.fireCommCreated(r, m)
		return m
	})
	return merged.(*Comm), nil
}

// SetName performs MPI_Comm_set_name, making the tool display the friendly
// name in the resource hierarchy (§4.2.3).
func (c *Comm) SetName(r *Rank, name string) {
	f := r.beginMPI("MPI_Comm_set_name", ref(c), ref(name))
	c.name = name
	for _, h := range c.w.hooks {
		if h.NameSet != nil {
			h.NameSet(r, c, name)
		}
	}
	r.endMPI(f)
}
