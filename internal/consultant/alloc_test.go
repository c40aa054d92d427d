package consultant

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// viewSource is a DataSource over a bare View: enabling registers the
// series, and the test feeds the samples.
type viewSource struct{ *datasource.View }

func (s viewSource) EnableMetric(m string, f resource.Focus) (*datasource.Series, error) {
	sr, _ := s.RegisterSeries(m, f)
	return sr, nil
}
func (viewSource) DisableMetric(string, resource.Focus) {}
func (viewSource) Sync()                                {}

// manualClock is an Engine whose time the test sets; scheduled evaluations
// are dropped (the test calls evaluate itself).
type manualClock struct{ now sim.Time }

func (*manualClock) Every(sim.Duration, func()) *sim.Ticker { return nil }
func (c *manualClock) Now() sim.Time                        { return c.now }

// settledSearch runs a search until its tree settles — every true node
// expanded, nothing new to arm — and returns it with the step that feeds one
// more second of samples and evaluates.
func settledSearch(t *testing.T) (*Consultant, func()) {
	t.Helper()
	v := datasource.NewView()
	v.BinWidth = 1000 * sim.Second // the run stays inside the bins already allocated
	for _, path := range []string{"/Code/app.c/work", "/Machine/node0/p0", "/Machine/node1/p1"} {
		v.ApplyUpdate(datasource.Update{Kind: datasource.UpAddResource, Path: path})
	}
	clk := &manualClock{}
	c := New(viewSource{v}, clk, DefaultConfig())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Every armed pair reports half a second of waiting per second on both
	// processes: every hypothesis tests true and refines until maxDepth.
	var batch []datasource.Sample
	step := func() {
		clk.now = clk.now.Add(sim.Second)
		batch = batch[:0]
		var walk func(n *Node)
		walk = func(n *Node) {
			for _, proc := range []string{"p0", "p1"} {
				batch = append(batch, datasource.Sample{Metric: n.spec.metricName, Focus: n.Focus, Proc: proc, Time: clk.now, Delta: 0.5})
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		for _, r := range c.roots {
			walk(r)
		}
		v.ApplySamples(batch)
		c.evaluate()
	}
	settled := 0
	for i := 0; i < 20 && settled < 3; i++ {
		before := c.nodes
		step()
		if c.nodes == before {
			settled++
		} else {
			settled = 0
		}
	}
	tested, isTrue, pruned := c.Stats()
	if settled < 3 || tested < 10 || isTrue != tested || pruned != 0 {
		t.Fatalf("tree did not settle into a deep all-true search: %d nodes (%d true, %d pruned), %d quiet passes", tested, isTrue, pruned, settled)
	}
	step() // the sample batch reaches its final capacity
	return c, step
}

// The allocation budget of the search in steady state: an evaluation pass
// over a settled tree (per-process totals, fractions, verdict, for every
// node) allocates nothing.
func TestSettledEvaluationAllocatesNothing(t *testing.T) {
	c, step := settledSearch(t)
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("an evaluation pass over a settled tree of %d nodes: %v allocs, want 0", c.nodes, n)
	}
}

// HasFinding walks the tree where it lies: it answers as a scan of
// Findings() does, for substrings inside one path, across the notation's
// separators and for misses, and allocates nothing while no substr holds a
// '<', ',' or '>'.
func TestHasFindingAllocatesNothing(t *testing.T) {
	c, _ := settledSearch(t)
	queries := []string{"work", "p1", "/Machine/node1", "/SyncObject", "node0/p0,/Sync", "<", ">", "", "absent"}
	for _, hyp := range []string{"", HypSync, HypCPU, "NoSuchHypothesis"} {
		for _, q := range queries {
			want := false
			for _, f := range c.Findings() {
				if (hyp == "" || f.Hypothesis == hyp) && (strings.Contains(f.FocusStr, q) || strings.Contains(f.Label, q)) {
					want = true
				}
			}
			if got := c.HasFinding(hyp, q); got != want {
				t.Errorf("HasFinding(%q, %q) = %v, Findings say %v", hyp, q, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		c.HasFinding(HypCPU, "/Machine/node1/p1")
		c.HasFinding("", "absent")
	}); n != 0 {
		t.Errorf("HasFinding over %d nodes: %v allocs, want 0", c.nodes, n)
	}
}

// Arming a node over a series two processes already fill, and its first
// evaluation, cost the Node and its cursors: no per-process map, no
// per-node fractions buffer.
func TestArmingANodeAllocationBudget(t *testing.T) {
	const budget = 2
	v := datasource.NewView()
	for _, path := range []string{"/Machine/node0/p0", "/Machine/node1/p1"} {
		v.ApplyUpdate(datasource.Update{Kind: datasource.UpAddResource, Path: path})
	}
	c := New(viewSource{v}, &manualClock{}, DefaultConfig())
	spec := c.specs()[0]
	foci := make([]resource.Focus, 100)
	for i := range foci {
		foci[i] = resource.WholeProgram().WithCode(fmt.Sprintf("/Code/app.c/f%d", i))
		v.RegisterSeries(spec.metricName, foci[i])
		for _, proc := range []string{"p1", "p0"} {
			v.ApplySamples([]datasource.Sample{{Metric: spec.metricName, Focus: foci[i], Proc: proc, Time: sim.Time(sim.Second), Delta: 0.5}})
		}
	}
	i := 0
	if n := testing.AllocsPerRun(len(foci)-1, func() {
		n, err := c.newNode(spec, foci[i], "f", nil)
		if err != nil || len(n.cursors) != 2 {
			t.Fatalf("armed %v, %v", n, err)
		}
		n.update(0)
		i++
	}); n > budget {
		t.Errorf("arming a node and its first evaluation: %v allocs, want at most %d", n, budget)
	}
}

// writeValue is the report's " (%.2f)" without fmt, signs of zero and infinity included.
func TestWriteValueMatchesFmt(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), -0.001, 0.005, 0.015, 2.675, 0.999999, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		var b strings.Builder
		writeValue(&b, v)
		if want := fmt.Sprintf(" (%.2f)", v); b.String() != want {
			t.Errorf("writeValue(%v) = %q, fmt says %q", v, b.String(), want)
		}
	}
}
