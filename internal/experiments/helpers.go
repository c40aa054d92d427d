package experiments

import (
	"fmt"
	"strings"
	"sync"

	"pperf/internal/cluster"
	"pperf/internal/consultant"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
)

// clusterSpec builds an n-rank layout for a program run without the tool:
// two ranks per node, never fewer than two nodes.
func clusterSpec(n int) *cluster.Spec { return cluster.DefaultSpec(max((n+1)/2, 2), 2) }

// cell is one judged run of a PPerfMark program under one personality: a
// row of Table 2 or 3, and what a Performance Consultant figure renders.
type cell struct {
	res     *pperfmark.Result
	verdict *pperfmark.Verdict
}

// cells memoises one judged pperfmark.Run per run spec, so the figures and
// tables of one Run or RunAll share each run. Safe for concurrent use; a
// harness error panics every caller of the cell (experiments are
// regeneration scripts, not servers).
type cells struct {
	m sync.Map // pperfmark.Spec.String() → func() cell, a sync.OnceValue
}

// get returns the cell of program under impl, simulating it on first use.
func (c *cells) get(program string, impl mpi.ImplKind) cell {
	opt := pperfmark.RunOptions{Impl: impl}
	spec, err := pperfmark.NewSpec(program, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s: %v", program, impl, err))
	}
	run, _ := c.m.LoadOrStore(spec.String(), sync.OnceValue(func() cell {
		res, err := pperfmark.Run(program, opt)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v: %v", spec, err))
		}
		return cell{res, pperfmark.Judge(res)}
	}))
	return run.(func() cell)()
}

// judged marks r mismatched, one note per problem, for every cell whose
// Judge verdict fails: a figure reproduces the paper only if each run it
// renders passes its Table 2 or 3 row.
func (r *Result) judged(cs ...cell) {
	for _, c := range cs {
		for _, p := range c.verdict.Problems {
			r.ok(false, "%s/%s: %s", c.verdict.Program, c.verdict.Impl, p)
		}
	}
}

// pcSideBySide renders two implementations' condensed Performance Consultant
// outputs next to each other, the form the paper's PC figures take.
func pcSideBySide(left, right cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s ---\n%s", left.res.Impl, left.res.PC.Render())
	fmt.Fprintf(&b, "--- %s ---\n%s", right.res.Impl, right.res.PC.Render())
	return b.String()
}

// hasSync reports whether the cell's Consultant found a synchronization
// bottleneck whose focus or label contains substr.
func hasSync(c cell, substr string) bool {
	return c.res.PC.HasFinding(consultant.HypSync, substr)
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
