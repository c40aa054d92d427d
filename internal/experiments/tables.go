package experiments

import (
	"fmt"
	"strings"

	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
)

func init() {
	register("table1", table1)
	register("table2", table2)
	register("table3", table3)
}

// table1 verifies that every RMA metric of the paper's Table 1 exists in the
// standard library with the right kind of definition.
func table1(*cells) *Result {
	r := &Result{
		ID:    "table1",
		Title: "RMA metric definitions",
		Paper: "12 RMA metrics: op counts, byte counts, active/passive/general sync wait, sync ops",
		OK:    true,
	}
	lib := mdl.StdLib()
	rows := []struct {
		name  string
		units string
	}{
		{"rma_put_ops", "ops"}, {"rma_get_ops", "ops"}, {"rma_acc_ops", "ops"},
		{"rma_ops", "ops"},
		{"rma_put_bytes", "bytes"}, {"rma_get_bytes", "bytes"},
		{"rma_acc_bytes", "bytes"}, {"rma_bytes", "bytes"},
		{"at_rma_sync_wait", "CPUs"}, {"pt_rma_sync_wait", "CPUs"},
		{"rma_sync_wait", "CPUs"}, {"rma_sync_ops", "ops"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %s\n", "Metric", "Units")
	found := 0
	for _, row := range rows {
		m := lib.Metric(row.name)
		r.ok(m != nil, "metric %s missing", row.name)
		if m != nil {
			found++
			r.ok(m.Units() == row.units, "metric %s units %q, want %q", row.name, m.Units(), row.units)
			fmt.Fprintf(&b, "%-20s %s\n", row.name, m.Units())
		}
	}
	r.Measured = fmt.Sprintf("%d/12 Table-1 metrics compiled from MDL", found)
	r.Output = b.String()
	return r
}

// table2 judges the MPI-1 suite under LAM and MPICH.
func table2(c *cells) *Result {
	r := &Result{
		ID:    "table2",
		Title: "PPerfMark MPI-1 results",
		Paper: "Pass for all programs except system-time (Fail: no system-time metrics)",
		OK:    true,
	}
	verdicts := r.table(c, pperfmark.MPI1Names(), mpi.LAM, mpi.MPICH)
	pass := 0
	for _, v := range verdicts {
		if v.Pass {
			pass++
		}
	}
	r.Measured = fmt.Sprintf("%d rows as the paper reports, %d mismatched", pass, len(verdicts)-pass)
	r.Output = pperfmark.RenderTable("Table 2: PPerfMark MPI-1 program results", verdicts)
	return r
}

// table3 judges the MPI-2 suite under LAM and MPICH2.
func table3(c *cells) *Result {
	r := &Result{
		ID:    "table3",
		Title: "PPerfMark MPI-2 results",
		Paper: "Pass for all programs (spawn programs under LAM only)",
		OK:    true,
	}
	verdicts := r.table(c, pperfmark.MPI2Names(), mpi.LAM, mpi.MPICH2)
	pass, skip := 0, 0
	for _, v := range verdicts {
		switch {
		case v.Skipped != "":
			skip++
		case v.Pass:
			pass++
		}
	}
	r.Measured = fmt.Sprintf("%d rows reproduced, %d skipped (MPICH2 lacks spawn, as in the paper)", pass, skip)
	r.Output = pperfmark.RenderTable("Table 3: PPerfMark MPI-2 program results", verdicts)
	return r
}

// table returns the verdicts of every named program under each personality,
// program-major as the paper's tables list them, noting each problem on r.
func (r *Result) table(c *cells, names []string, impls ...mpi.ImplKind) []*pperfmark.Verdict {
	var verdicts []*pperfmark.Verdict
	for _, name := range names {
		for _, impl := range impls {
			x := c.get(name, impl)
			r.judged(x)
			verdicts = append(verdicts, x.verdict)
		}
	}
	return verdicts
}
