package core

import (
	"fmt"

	"pperf/internal/datasource"
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
	// The probe runs at the entry of every point-to-point call, so the
	// already-reported test is two integer-keyed lookups; the resource path
	// is formatted only on a pair's first sight.
	type commTag struct{ comm, tag int }
	seen := map[int]int{} // comm id → #tags discovered
	reported := map[commTag]bool{}
	report := func(comm, tagArg probe.Arg) {
		c, _ := comm.Ref.(*mpi.Comm)
		tag := tagArg.Int
		if c == nil || tag < 0 {
			return
		}
		k := commTag{c.ID(), tag}
		if reported[k] || seen[k.comm] >= maxTagsPerComm {
			return
		}
		reported[k] = true
		seen[k.comm]++
		s.FE.Report(session.Event{Kind: session.EvUpdate, Update: datasource.Update{
			Kind: datasource.UpAddResource, Time: s.Eng.Now(),
			Path: fmt.Sprintf("/SyncObject/Message/comm-%d/tag-%d", k.comm, k.tag),
		}})
	}
	p2p := func(ev *probe.Event) { report(ev.Arg(5), ev.Arg(4)) }
	sendrecv := func(ev *probe.Event) {
		report(ev.Arg(10), ev.Arg(4))
		report(ev.Arg(10), ev.Arg(9))
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
