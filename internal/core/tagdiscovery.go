package core

import (
	"fmt"

	"pperf/internal/daemon"
	"pperf/internal/mpi"
	"pperf/internal/probe"
	"pperf/internal/session"
)

// maxTagsPerComm bounds the number of message-tag resources discovered per
// communicator, so programs cycling through tag values cannot flood the
// resource hierarchy.
const maxTagsPerComm = 32

// installTagDiscovery arms lightweight standing instrumentation that
// discovers (communicator, tag) pairs as messages flow, populating
// /SyncObject/Message/<comm>/<tag> resources — what lets the Performance
// Consultant refine a message-passing bottleneck down to the tag, as in
// Figs 3 and 9.
func installTagDiscovery(s *Session) {
	seen := map[string]int{} // comm path → #tags discovered
	reported := map[string]bool{}
	report := func(c *mpi.Comm, tag int) {
		if c == nil || tag < 0 {
			return
		}
		commPath := fmt.Sprintf("/SyncObject/Message/comm-%d", c.ID())
		full := fmt.Sprintf("%s/tag-%d", commPath, tag)
		if reported[full] || seen[commPath] >= maxTagsPerComm {
			return
		}
		reported[full] = true
		seen[commPath]++
		s.FE.Report(session.Event{Kind: session.EvUpdate, Update: daemon.Update{
			Kind: daemon.UpAddResource, Time: s.Eng.Now(), Path: full,
		}})
	}
	asComm := func(v any) *mpi.Comm {
		c, _ := v.(*mpi.Comm)
		return c
	}
	asInt := func(v any) int {
		if n, ok := v.(int); ok {
			return n
		}
		return -1
	}
	p2p := func(ev *probe.Event) { report(asComm(ev.Arg(5)), asInt(ev.Arg(4))) }
	sendrecv := func(ev *probe.Event) {
		report(asComm(ev.Arg(10)), asInt(ev.Arg(4)))
		report(asComm(ev.Arg(10)), asInt(ev.Arg(9)))
	}
	s.World.AddHooks(&mpi.Hooks{
		ProcessStarted: func(r *mpi.Rank) {
			for _, base := range []string{"MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv"} {
				r.Probes().Insert(base, probe.Entry, probe.Append, p2p)
				r.Probes().Insert("P"+base, probe.Entry, probe.Append, p2p)
			}
			r.Probes().Insert("MPI_Sendrecv", probe.Entry, probe.Append, sendrecv)
			r.Probes().Insert("PMPI_Sendrecv", probe.Entry, probe.Append, sendrecv)
		},
	})
}
