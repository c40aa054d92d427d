package experiments

import (
	"fmt"

	"pperf/internal/consultant"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
)

func init() {
	register("extensions", extensions)
}

// extensions runs the delivered-future-work programs: the passive-target
// test the paper could not implement in 2004 (§5.2.1.1: neither LAM nor
// MPICH2 supported passive-target synchronization) and an MPI-I/O-bound
// program exercising the §3 discussion.
func extensions(c *cells) *Result {
	r := &Result{ID: "extensions", Title: "Delivered future work (beyond the paper's tables)", OK: true,
		Paper: "passive-target PPerfMark programs planned but unimplementable; MPI-I/O measurement discussed (§3) but not evaluated"}

	// winlock-sync under the Reference personality, and fileio-bound's
	// ExcessiveIOBlockingTime through MPI-I/O.
	wl, fio := c.get("winlock-sync", mpi.Reference), c.get("fileio-bound", mpi.MPICH2)
	r.judged(wl, fio)
	// Under LAM winlock-sync is skipped, preserving the paper's 2004 reality.
	r.ok(c.get("winlock-sync", mpi.LAM).res.Unsupported != nil, "winlock should be unsupported under LAM")

	r.Measured = fmt.Sprintf(
		"winlock-sync: passive-target waiting diagnosed under Reference (sync %.2f), skipped under LAM; fileio-bound: IO blocking diagnosed (%.2f)",
		findingValue(wl.res, consultant.HypSync), findingValue(fio.res, consultant.HypIO))
	r.Output = "--- winlock-sync (Reference personality) ---\n" + wl.res.PC.Render() +
		"--- fileio-bound (MPICH2) ---\n" + fio.res.PC.Render()
	return r
}

// findingValue returns the top-level value of a hypothesis.
func findingValue(res *pperfmark.Result, hyp string) float64 {
	for _, root := range res.PC.Roots() {
		if root.Hypothesis == hyp {
			return root.Value
		}
	}
	return 0
}
