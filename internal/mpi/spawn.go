package mpi

import (
	"fmt"

	"pperf/internal/cluster"
	"pperf/internal/sim"
)

// Spawn is MPI_Comm_spawn: collectively start maxprocs new processes running
// the registered program named command, returning the parent↔child
// intercommunicator. Placement follows the implementation's rules: LAM
// honours the lam_spawn_file Info key naming an application schema in the
// world's FS (§4.2.2); otherwise children round-robin across nodes. There is
// deliberately no implementation-independent way to learn where the children
// started from the call's arguments — the tool must intercept the call or
// consult the process table, exactly the §4.2.2 problem.
//
// Probe args mirror C MPI: (command, argv, maxprocs, info, root, comm,
// intercomm, errcodes) — the intercommunicator is visible at the return
// probe.
func (c *Comm) Spawn(r *Rank, command string, argv []string, maxprocs int, info Info, root int) (*Comm, error) {
	f := r.beginMPI("MPI_Comm_spawn", ref(command), addr(argv), num(maxprocs), ref(info), num(root), ref(c), none)
	w := c.w

	if !w.Impl.SupportsSpawn {
		r.endMPI(f)
		return nil, &ErrUnsupported{w.Impl.Kind, "dynamic process creation"}
	}
	if maxprocs < 1 {
		r.endMPI(f)
		return nil, fmt.Errorf("mpi: MPI_Comm_spawn: maxprocs must be >= 1, got %d", maxprocs)
	}
	prog, ok := w.programs[command]
	if !ok {
		r.endMPI(f)
		return nil, fmt.Errorf("mpi: MPI_Comm_spawn: no program registered as %q", command)
	}

	if root < 0 || root >= c.Size() {
		r.endMPI(f)
		return nil, fmt.Errorf("mpi: MPI_Comm_spawn: root %d out of range [0,%d) on %s", root, c.Size(), c.Name())
	}

	// The spawn is collective over the parent communicator: everyone meets
	// before and after the root does the work. The first round's value is
	// where the root leaves the result.
	out := c.setup.meet(r, "MPI_Comm_spawn (enter)", func(v any, _ bool) any {
		if out, ok := v.(*spawned); ok {
			return out
		}
		return &spawned{}
	}).(*spawned)

	if c.RankOf(r) == root {
		// The intercept method's wrapper (tool daemon startup) inflates the
		// spawn operation itself — the measurable drawback of §4.2.2.
		if w.SpawnInterceptor != nil {
			r.Compute(w.SpawnInterceptor(r, maxprocs))
		}
		r.Compute(w.Impl.SpawnBase + sim.Duration(maxprocs)*w.Impl.SpawnPerProc)

		placements, err := w.spawnPlacements(maxprocs, info)
		if err != nil {
			out.err = err
		} else {
			childWorld := w.startGroup(command, prog, placements, argv, nil)
			inter := w.newComm(c.local, childWorld.local)
			inter.name = fmt.Sprintf("intercomm-%d", inter.id)
			for _, child := range childWorld.local {
				child.parentComm = inter
			}
			out.inter = inter
			if w.Tracer != nil {
				for _, child := range childWorld.local {
					w.traceEdge("spawn", r, child, r.Now(), r.Now(), 0, 0, 0, true)
				}
			}
			w.fireCommCreated(r, inter)
		}
	}

	c.setup.meet(r, "MPI_Comm_spawn (exit)", nil)
	r.probes.SetArg(6, ref(out.inter))
	r.endMPI(f)
	return out.inter, out.err
}

// spawned is the value of a spawn's first round: the root's result.
type spawned struct {
	inter *Comm
	err   error
}

// spawnPlacements decides where spawned children run.
func (w *World) spawnPlacements(maxprocs int, info Info) ([]cluster.Placement, error) {
	if file, ok := info["lam_spawn_file"]; ok && w.Impl.Kind == LAM {
		text, ok := w.FS[file]
		if !ok {
			return nil, fmt.Errorf("mpi: lam_spawn_file %q not found", file)
		}
		schema, err := cluster.ParseBootSchema(text)
		if err != nil {
			return nil, fmt.Errorf("mpi: bad application schema: %w", err)
		}
		var placements []cluster.Placement
		for rank := 0; rank < maxprocs; rank++ {
			host := schema.Nodes[rank%schema.NumNodes()].Name
			node := -1
			for i, nd := range w.Spec.Nodes {
				if nd.Name == host {
					node = i
					break
				}
			}
			if node < 0 {
				return nil, fmt.Errorf("mpi: schema host %q not in LAM session", host)
			}
			placements = append(placements, cluster.Placement{Rank: rank, Node: node})
		}
		return placements, nil
	}
	// Implementation-dependent default: round-robin over the session nodes.
	placements := make([]cluster.Placement, maxprocs)
	for i := range placements {
		placements[i] = cluster.Placement{Rank: i, Node: i % w.Spec.NumNodes()}
	}
	return placements, nil
}
