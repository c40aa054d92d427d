package consultant

import (
	"fmt"
	"sort"
	"strings"

	"pperf/internal/resource"
)

// Finding is one true hypothesis node, for programmatic inspection.
type Finding struct {
	Hypothesis string
	FocusStr   string
	Label      string
	Value      float64
	Depth      int
	// Partial marks a finding evaluated on incomplete data (some processes
	// were lost to injected or real failures while it was tested).
	Partial bool
	// GapPartial marks a finding whose evaluation interval overlapped an
	// unmeasured outage gap (daemon respawned by the supervisor).
	GapPartial bool
}

// Findings returns every node that tested true, shallowest first.
func (c *Consultant) Findings() []Finding {
	var out []Finding
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.True {
			out = append(out, Finding{
				Hypothesis: n.Hypothesis,
				FocusStr:   n.Focus.String(),
				Label:      n.Label,
				Value:      n.Value,
				Depth:      n.depth,
				Partial:    n.Partial,
				GapPartial: n.GapPartial,
			})
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, r := range c.roots {
		walk(r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Depth < out[j].Depth })
	return out
}

// TopVerdict is one top-level hypothesis outcome in an Export.
type TopVerdict struct {
	Hypothesis string
	True       bool
	Value      float64
}

// Export is the machine-readable verdict of one completed search: the
// top-level hypothesis outcomes, every true finding, and the search-size
// counters. The experiment store (internal/perfdb) persists its String
// form in the run index so stored runs can be compared without replay.
type Export struct {
	TopLevel []TopVerdict
	Findings []Finding
	Tested   int
	True     int
	Pruned   int
}

// Export summarizes the search for storage and cross-run comparison.
func (c *Consultant) Export() Export {
	e := Export{Findings: c.Findings()}
	for _, r := range c.roots {
		e.TopLevel = append(e.TopLevel, TopVerdict{Hypothesis: r.Hypothesis, True: r.True, Value: r.Value})
	}
	e.Tested, e.True, e.Pruned = c.Stats()
	return e
}

// shortHyp maps hypothesis names to the compact labels Export.String uses.
var shortHyp = map[string]string{
	HypSync: "sync",
	HypIO:   "io",
	HypCPU:  "cpu",
}

// String renders the export as one deterministic line, e.g.
// "sync=true(0.43) io=false(0.01) cpu=true(0.38); 7 findings, 23 tested, 9 pruned".
func (e Export) String() string {
	var b strings.Builder
	for i, tv := range e.TopLevel {
		if i > 0 {
			b.WriteByte(' ')
		}
		name := shortHyp[tv.Hypothesis]
		if name == "" {
			name = tv.Hypothesis
		}
		fmt.Fprintf(&b, "%s=%s(%.2f)", name, boolWord(tv.True), tv.Value)
	}
	fmt.Fprintf(&b, "; %d findings, %d tested, %d pruned", len(e.Findings), e.Tested, e.Pruned)
	return b.String()
}

// HasFinding reports whether some true node under the given hypothesis has
// a focus containing substr (e.g. "MPI_Send", "/SyncObject/Window/0-1").
// Empty hypothesis matches any.
func (c *Consultant) HasFinding(hypothesis, substr string) bool {
	for _, f := range c.Findings() {
		if hypothesis != "" && f.Hypothesis != hypothesis {
			continue
		}
		if strings.Contains(f.FocusStr, substr) || strings.Contains(f.Label, substr) {
			return true
		}
	}
	return false
}

// TopLevelTrue reports whether the named top-level hypothesis tested true.
func (c *Consultant) TopLevelTrue(hypothesis string) bool {
	for _, r := range c.roots {
		if r.Hypothesis == hypothesis {
			return r.True
		}
	}
	return false
}

// AnyTrue reports whether any top-level hypothesis tested true (system-time
// expects none).
func (c *Consultant) AnyTrue() bool {
	for _, r := range c.roots {
		if r.True {
			return true
		}
	}
	return false
}

// Render produces the condensed form of the Performance Consultant's
// findings, as the paper's figures show: the top-level hypotheses with their
// truth values, and beneath each true one the tree of true refinements.
func (c *Consultant) Render() string {
	degraded := c.ds.Coverage() < 1
	gaps := c.ds.UnmeasuredGaps()
	var b strings.Builder
	b.WriteString("TopLevelHypothesis\n")
	for i, r := range c.roots {
		last := i == len(c.roots)-1
		connector, indent := "├─ ", "│  "
		if last {
			connector, indent = "└─ ", "   "
		}
		mark := ""
		// A hypothesis is flagged when its data is untrustworthy right now
		// (processes still lost) or when any of its evaluation intervals
		// overlapped an unmeasured outage gap. Gap marks are scoped to the
		// overlapping hypotheses — a recovered run's other verdicts render
		// clean.
		if (degraded && r.Partial) || r.GapPartial {
			mark = " [partial data]"
		}
		fmt.Fprintf(&b, "%s%s: %s (%.2f)%s\n", connector, r.Hypothesis, boolWord(r.True), r.Value, mark)
		if r.True {
			renderTrueChildren(&b, r, indent)
		}
	}
	// In a healthy run neither block ever renders, so default reports are
	// unchanged; in a degraded or gap-recovered run the verdicts carry
	// their caveat.
	if degraded {
		fmt.Fprintf(&b, "WARNING: %s\n", c.ds.DegradationSummary())
		b.WriteString("WARNING: hypotheses marked [partial data] were evaluated on surviving processes only\n")
	}
	if len(gaps) > 0 {
		for _, g := range gaps {
			fmt.Fprintf(&b, "WARNING: unmeasured gap on %s from %v to %v (daemon respawned)\n", g.Node, g.From, g.To)
		}
		if !degraded {
			b.WriteString("WARNING: hypotheses marked [partial data] overlapped an unmeasured gap\n")
		}
	}
	return b.String()
}

// Coverage reports the front end's data-coverage fraction at render time
// (1.0 = every known process reporting).
func (c *Consultant) Coverage() float64 { return c.ds.Coverage() }

func boolWord(v bool) string {
	if v {
		return "true"
	}
	return "false"
}

// renderTrueChildren draws the true descendants of a node, labelling each
// refinement step, with duplicate foci collapsed.
func renderTrueChildren(b *strings.Builder, n *Node, indent string) {
	var kids []*Node
	seen := map[resource.Focus]bool{}
	for _, ch := range n.Children {
		if f := ch.Focus.Canon(); ch.True && !seen[f] {
			seen[f] = true
			kids = append(kids, ch)
		}
	}
	for i, ch := range kids {
		last := i == len(kids)-1
		connector, childIndent := "├─ ", indent+"│  "
		if last {
			connector, childIndent = "└─ ", indent+"   "
		}
		fmt.Fprintf(b, "%s%s%s (%.2f)\n", indent, connector, ch.describe(), ch.Value)
		renderTrueChildren(b, ch, childIndent)
	}
}

// Stats summarizes the search: nodes tested, true, pruned.
func (c *Consultant) Stats() (tested, trueCount, pruned int) {
	var walk func(n *Node)
	walk = func(n *Node) {
		tested++
		if n.True {
			trueCount++
		}
		if n.Pruned {
			pruned++
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, r := range c.roots {
		walk(r)
	}
	return
}

// describe renders the refinement step this node adds over its parent.
func (n *Node) describe() string {
	if n.Parent == nil {
		return n.Hypothesis
	}
	p := n.Parent.Focus
	f := n.Focus
	switch {
	case f.CodePath != p.CodePath:
		return n.Label
	case f.SyncPath != p.SyncPath:
		return f.SyncPath + nameSuffix(n)
	case f.MachinePath != p.MachinePath:
		return f.MachinePath
	default:
		return n.Label
	}
}

// nameSuffix appends a friendly name when the resource has one.
func nameSuffix(n *Node) string {
	h := n.c.ds.Hierarchy()
	if res := h.FindPath(n.Focus.SyncPath); res != nil {
		if res.DisplayName() != res.Name() {
			return fmt.Sprintf(" (%s)", res.DisplayName())
		}
	}
	return ""
}
