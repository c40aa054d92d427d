package consultant

import (
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

// The allocation budget of the search in steady state: once the tree has
// settled — every true node expanded, nothing new to arm — an evaluation
// pass over it (per-process totals, fractions, verdict, for every node)
// allocates nothing.
func TestSettledEvaluationAllocatesNothing(t *testing.T) {
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
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("an evaluation pass over a settled tree of %d nodes: %v allocs, want 0", tested, n)
	}
}
