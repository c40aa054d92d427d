package presta

import (
	"fmt"
	"strings"

	"pperf/internal/core"
	"pperf/internal/daemon"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/stats"
)

// ToolMeasurement is what the tool derives for one run using the paper's
// histogram methodology (§5.2.1.3): values in each bin are multiplied by the
// bin's represented time and summed for totals; run time is estimated from
// the count of data-bearing bins excluding the endpoints; throughput and
// per-op time follow.
type ToolMeasurement struct {
	Ops        float64
	Bytes      float64
	RunTime    sim.Duration
	Throughput float64
	PerOpTime  float64
}

// RunOnce executes the rma benchmark under the full tool and returns both
// the benchmark's self-report and the tool's derivation.
func RunOnce(impl mpi.ImplKind, cfg Config, mode Mode, seed uint64) (*Report, *ToolMeasurement, error) {
	dcfg := daemon.DefaultConfig()
	dcfg.SampleInterval = 50 * sim.Millisecond
	s, err := core.NewSession(core.Options{
		Impl: impl, Nodes: 2, CPUsPerNode: 1, Seed: seed,
		Daemon: &dcfg, BinWidth: 100 * sim.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()

	report := &Report{}
	s.Register("presta-rma", Program(cfg, mode, report))

	whole := resource.WholeProgram()
	opsMetric, bytesMetric := "rma_put_ops", "rma_put_bytes"
	if mode == UniGet || mode == BiGet {
		opsMetric, bytesMetric = "rma_get_ops", "rma_get_bytes"
	}
	opsSeries := s.MustEnable(opsMetric, whole)
	bytesSeries := s.MustEnable(bytesMetric, whole)

	if err := s.Launch("presta-rma", 2, nil); err != nil {
		return nil, nil, err
	}
	if err := s.Run(); err != nil {
		return nil, nil, err
	}

	tm := &ToolMeasurement{
		Ops:     opsSeries.Histogram().Total(),
		Bytes:   bytesSeries.Histogram().Total(),
		RunTime: bytesSeries.Histogram().ActiveRunTime(),
	}
	opsTotal, bytesTotal := opsSeries.Histogram().InteriorTotal(), bytesSeries.Histogram().InteriorTotal()
	if tm.RunTime <= 0 {
		// Run too short for the endpoint-elimination methodology; fall back
		// to the full span.
		tm.RunTime = sim.Duration(bytesSeries.Histogram().NumFilled()) * bytesSeries.Histogram().BinWidth()
		opsTotal, bytesTotal = tm.Ops, tm.Bytes
	}
	if tm.RunTime > 0 {
		tm.Throughput = bytesTotal / tm.RunTime.Seconds()
		if opsTotal > 0 {
			tm.PerOpTime = tm.RunTime.Seconds() / opsTotal
		}
	}
	return report, tm, nil
}

// Comparison is the per-mode outcome across repeated runs.
type Comparison struct {
	Mode Mode
	Runs int
	// Per-run samples.
	PrestaOps, ToolOps               []float64
	PrestaThroughput, ToolThroughput []float64
	PrestaPerOp, ToolPerOp           []float64
	// Paired results.
	OpsDiff        *stats.PairedResult
	ThroughputDiff *stats.PairedResult
	PerOpDiff      *stats.PairedResult
}

// Compare runs the benchmark `runs` times and applies the paper's
// significance test to the paired Presta-vs-tool measurements. Each run gets
// its own seed, but nothing draws from the seed, so the runs are identical:
// every paired difference is a constant, its confidence interval has zero
// width, and any non-zero difference tests significant.
func Compare(impl mpi.ImplKind, cfg Config, mode Mode, runs int) (*Comparison, error) {
	if runs < 2 {
		return nil, fmt.Errorf("presta: need at least 2 runs for a confidence interval")
	}
	cmp := &Comparison{Mode: mode, Runs: runs}
	for i := 0; i < runs; i++ {
		rep, tm, err := RunOnce(impl, cfg, mode, uint64(1000+i*37))
		if err != nil {
			return nil, err
		}
		cmp.PrestaOps = append(cmp.PrestaOps, float64(rep.TotalOps))
		cmp.ToolOps = append(cmp.ToolOps, tm.Ops)
		cmp.PrestaThroughput = append(cmp.PrestaThroughput, rep.Throughput())
		cmp.ToolThroughput = append(cmp.ToolThroughput, tm.Throughput)
		cmp.PrestaPerOp = append(cmp.PrestaPerOp, rep.PerOpTime())
		cmp.ToolPerOp = append(cmp.ToolPerOp, tm.PerOpTime)
	}
	var err error
	if cmp.OpsDiff, err = stats.PairedDiff(cmp.PrestaOps, cmp.ToolOps); err != nil {
		return nil, err
	}
	if cmp.ThroughputDiff, err = stats.PairedDiff(cmp.PrestaThroughput, cmp.ToolThroughput); err != nil {
		return nil, err
	}
	if cmp.PerOpDiff, err = stats.PairedDiff(cmp.PrestaPerOp, cmp.ToolPerOp); err != nil {
		return nil, err
	}
	return cmp, nil
}

// Render formats the comparison like the paper reports it.
func (c *Comparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Presta rma vs tool, %s (%d runs)\n", c.Mode, c.Runs)
	row := func(what string, presta, tool []float64, d *stats.PairedResult) {
		sig := "not significant"
		if d.Significant {
			sig = "SIGNIFICANT"
		}
		fmt.Fprintf(&b, "  %-12s presta %.6g, tool %.6g, rel diff %+.3f%% (%s, CI %s)\n",
			what, stats.Mean(presta), stats.Mean(tool), d.RelDiff*100, sig, d.CI)
	}
	row("ops", c.PrestaOps, c.ToolOps, c.OpsDiff)
	row("throughput", c.PrestaThroughput, c.ToolThroughput, c.ThroughputDiff)
	row("per-op time", c.PrestaPerOp, c.ToolPerOp, c.PerOpDiff)
	return b.String()
}
