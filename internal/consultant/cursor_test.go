package consultant

import (
	"math"
	"slices"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// A node's cursors follow its series as processes join in any name order:
// each evaluation equals one over a per-process map of last-seen totals
// (absent = 0) summed in sorted process order, bit for bit. The CPU node is
// armed over a series that already holds data, so its cursors start at the
// series' totals then.
func TestCursorsFollowProcessesThatJoinLate(t *testing.T) {
	v := datasource.NewView()
	clk := &manualClock{}
	c := New(viewSource{v}, clk, DefaultConfig())
	specs := c.specs()
	syncSpec, cpuSpec := specs[0], specs[2]
	v.RegisterSeries(cpuSpec.metricName, resource.WholeProgram())
	syncNode, err := c.newNode(syncSpec, resource.WholeProgram(), "sync", nil)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		proc  string
		delta float64
	}
	schedule := [][]sample{
		{{"p1", 0.5}},
		{{"p1", 0.5}, {"p3", 0.25}},
		{{"p0", 0.75}, {"p1", 0.125}, {"p3", 0.375}},
		{{"p2", 0.0625}, {"p0", 0.5}},
		{{"p4", 1}, {"p1", 0.625}},
		{{"p3", 0.25}},
	}
	totals := map[string]float64{}
	type model struct {
		node *Node
		last map[string]float64
	}
	models := []*model{{node: syncNode, last: map[string]float64{}}}
	for step, samples := range schedule {
		clk.now = clk.now.Add(sim.Second)
		var batch []datasource.Sample
		for _, s := range samples {
			for _, m := range []string{syncSpec.metricName, cpuSpec.metricName} {
				batch = append(batch, datasource.Sample{Metric: m, Focus: resource.WholeProgram(), Proc: s.proc, Time: clk.now, Delta: s.delta})
			}
			totals[s.proc] += s.delta
		}
		v.ApplySamples(batch)
		evaluated := models
		if step == 2 {
			cpuNode, err := c.newNode(cpuSpec, resource.WholeProgram(), "cpu", nil)
			if err != nil {
				t.Fatal(err)
			}
			last := map[string]float64{}
			for p, tot := range totals {
				last[p] = tot
			}
			models = append(models, &model{node: cpuNode, last: last})
			cpuNode.update(clk.now) // armed at this instant: nothing to evaluate yet
		}
		for _, m := range evaluated {
			var procs []string
			for p := range totals {
				procs = append(procs, p)
			}
			slices.Sort(procs)
			want := 0.0
			for _, p := range procs {
				f := totals[p] - m.last[p] // over an interval of 1 s
				m.last[p] = totals[p]
				if m.node.spec.norm == normMax {
					want = max(want, f)
				} else {
					want += f
				}
			}
			if m.node.spec.norm != normMax {
				want /= float64(len(procs))
			}
			m.node.update(clk.now)
			if math.Float64bits(m.node.Value) != math.Float64bits(want) {
				t.Errorf("step %d, %s over %v: value %v, want %v", step, m.node.Hypothesis, procs, m.node.Value, want)
			}
		}
	}
}
