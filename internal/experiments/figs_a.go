package experiments

import (
	"fmt"
	"strings"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/datasource"
	"pperf/internal/gprofsim"
	"pperf/internal/mdl"
	"pperf/internal/mpe"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

func init() {
	register("fig1", fig1)
	register("fig2", fig2)
	register("fig3", fig3)
	register("fig4", fig4)
	register("fig5", fig5)
	register("fig6", fig6)
	register("fig7", fig7)
	register("fig8", fig8)
	register("fig9", fig9)
	register("fig10", fig10)
}

// metricPair names one metric-focus series to collect.
type metricPair struct {
	key    string
	metric string
	focus  resource.Focus
}

// runWithSeries runs a PPerfMark program under the tool without the PC,
// collecting the requested metric-focus series.
func runWithSeries(name string, impl mpi.ImplKind, p pperfmark.Params, pairs []metricPair) (map[string]*datasource.Series, sim.Time) {
	o, prog, params, err := pperfmark.SessionOptions(name, pperfmark.RunOptions{Impl: impl, Params: p})
	if err != nil {
		panic(err)
	}
	s, err := core.NewSession(o)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	s.Register(name, prog)
	out := map[string]*datasource.Series{}
	for _, pr := range pairs {
		out[pr.key] = s.MustEnable(pr.metric, pr.focus)
	}
	if err := s.Launch(name, params.Procs, nil); err != nil {
		panic(err)
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return out, s.Eng.Now()
}

// traceProgram runs a program under the MPE-style tracer and the gprof-style
// profiler (no tool): the paper's independent comparators.
func traceProgram(impl mpi.ImplKind, n int, prog mpi.Program) (*mpe.Tracer, *gprofsim.Profiler) {
	eng := sim.NewEngine(17)
	w := mpi.NewWorld(eng, clusterSpec(n), mpi.NewImpl(impl))
	tr, prof := mpe.Attach(w), gprofsim.Attach(w)
	w.Register("traced", prog)
	if _, err := w.LaunchN("traced", n, nil); err != nil {
		panic(err)
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return tr, prof
}

// traceSuite runs a PPerfMark program, p merged over its defaults, under LAM
// and the comparators, as the paper checks the tool's findings on the suite.
func traceSuite(name string, p pperfmark.Params) (*mpe.Tracer, *gprofsim.Profiler) {
	prog, params, err := pperfmark.Program(name, p)
	if err != nil {
		panic(err)
	}
	return traceProgram(mpi.LAM, params.Procs, prog)
}

// fig1 regenerates the RMA synchronization patterns: timeline traces of the
// four synchronization shapes the paper's Figure 1 diagrams.
func fig1(*cells) *Result {
	r := &Result{ID: "fig1", Title: "RMA synchronization patterns", OK: true,
		Paper: "late participants in Win_create/fence/PSCW/lock-unlock cause synchronization waiting"}
	var b strings.Builder

	// Fence with a late rank (top-right diagram).
	tr, _ := traceProgram(mpi.MPICH2, 3, func(rk *mpi.Rank, _ []string) {
		win, _ := rk.World().WinCreate(rk, 64, 1, nil)
		if rk.Rank() == 1 {
			rk.Compute(400 * sim.Millisecond) // process B is late to the fence
		}
		win.Fence(0)
		win.Free()
	})
	b.WriteString("Late rank at MPI_Win_fence (others wait):\n" + tr.TimeLines(48))
	fenceWait := tr.StateTime("", "MPI_Win_fence")
	r.ok(fenceWait > 600*sim.Millisecond, "fence waiting %v too small", fenceWait)

	// PSCW with a late post (bottom-left diagram).
	tr2, _ := traceProgram(mpi.LAM, 2, func(rk *mpi.Rank, _ []string) {
		win, _ := rk.World().WinCreate(rk, 64, 1, nil)
		if rk.Rank() == 0 {
			rk.Compute(400 * sim.Millisecond)
			win.Post([]int{1}, 0)
			win.WaitEpoch()
		} else {
			win.Start([]int{0}, 0)
			win.Put(nil, 8, mpi.Byte, 0, 0, 8, mpi.Byte)
			win.Complete()
		}
		win.Free()
	})
	b.WriteString("\nLate MPI_Win_post (LAM origin blocks in Win_start):\n" + tr2.TimeLines(48))
	startWait := tr2.StateTime("", "MPI_Win_start")
	r.ok(startWait > 300*sim.Millisecond, "Win_start waiting %v too small", startWait)

	// Passive target (bottom-right) on the Reference personality.
	tr3, _ := traceProgram(mpi.Reference, 2, func(rk *mpi.Rank, _ []string) {
		win, _ := rk.World().WinCreate(rk, 64, 1, nil)
		win.Fence(0)
		if rk.Rank() == 0 {
			win.Lock(mpi.LockExclusive, 1, 0)
			win.Put(nil, 8, mpi.Byte, 1, 0, 8, mpi.Byte)
			win.Unlock(1)
		}
		win.Fence(0)
		win.Free()
	})
	b.WriteString("\nPassive target lock/unlock (reference implementation):\n" + tr3.TimeLines(48))
	r.ok(tr3.StateTime("", "MPI_Win_unlock") > 0, "no Win_unlock time traced")

	r.Measured = fmt.Sprintf("fence wait %v; Win_start wait %v", fenceWait, startWait)
	r.Output = b.String()
	return r
}

// fig2 verifies the paper's MDL examples compile and instrument.
func fig2(*cells) *Result {
	r := &Result{ID: "fig2", Title: "MDL metric definitions compile", OK: true,
		Paper: "rma_put_ops, rma_put_bytes, rma_sync_wait metrics and the RMA window constraint"}
	lib := mdl.StdLib()
	names := lib.MetricNames()
	r.ok(len(names) >= 20, "only %d metrics", len(names))
	for _, n := range []string{"rma_put_ops", "rma_put_bytes", "rma_sync_wait"} {
		r.ok(lib.Metric(n) != nil, "missing %s", n)
	}
	// The figure's user-extensibility claim: new metrics compile on top.
	_, err := mdl.NewLibraryWithStd(`
resourceList fig2_set is procedure { "MPI_Put", "PMPI_Put" };
metric fig2_metric {
    name "fig2_metric"; units ops; unitstype unnormalized;
    aggregateOperator sum; style EventCounter;
    base is counter {
        foreach func in fig2_set { append preinsn func.entry constrained (* fig2_metric++; *) }
    }
}`)
	r.ok(err == nil, "user MDL failed: %v", err)
	r.Measured = fmt.Sprintf("%d standard metrics; user extension compiles", len(names))
	r.Output = "standard metrics: " + strings.Join(names, ", ")
	return r
}

// fig3 compares the PC's small-messages diagnosis under LAM and MPICH.
func fig3(c *cells) *Result {
	r := &Result{ID: "fig3", Title: "PC output for small-messages (LAM vs MPICH)", OK: true,
		Paper: "both: sync → Gsend_message → MPI_Send; LAM finds the communicator; MPICH adds ExcessiveIOBlockingTime"}
	lam, mpich := c.get("small-messages", mpi.LAM), c.get("small-messages", mpi.MPICH)
	r.judged(lam, mpich)
	r.ok(!lam.res.PC.TopLevelTrue(consultant.HypIO), "LAM IO hypothesis unexpectedly true")
	r.Measured = "sync→Gsend_message→MPI_Send both; communicator under LAM; IO blocking only under MPICH"
	r.Output = pcSideBySide(lam, mpich)
	return r
}

// fig4 reproduces the server byte-count histogram calculation.
func fig4(*cells) *Result {
	r := &Result{ID: "fig4", Title: "small-messages server receive bytes", OK: true,
		Paper: "estimate 199,259,066 of 200,000,000 true bytes (-0.4%): slight undercount from end-bin elimination"}
	p := pperfmark.Params{} // suite defaults
	series, runtime := runWithSeries("small-messages", mpi.LAM, p,
		[]metricPair{{"recv", "msg_bytes_recv", resource.WholeProgram()}})
	params := pperfmark.Get("small-messages").Defaults
	truth := float64(params.Iterations * (params.Procs - 1) * params.MessageSize)
	server := series["recv"].ProcHistogram("small-messages{0}")
	r.ok(server != nil, "server histogram missing (procs: %v)", series["recv"].Procs())
	if server == nil {
		return r
	}
	est := server.TotalViaMeanRate(sim.Duration(runtime))
	relErr := (est - truth) / truth
	r.ok(server.Total() == truth, "exact counter %v != truth %v", server.Total(), truth)
	r.ok(relErr < 0.02 && relErr > -0.15, "estimate error %v out of band", relErr)
	r.Measured = fmt.Sprintf("true %d bytes; mean-rate estimate %.0f (%+.2f%%)", int64(truth), est, relErr*100)
	r.Output = fmt.Sprintf("server recv bytes/bin: |%s|\nexact total %v, estimate %.0f over %v runtime",
		server.Render(48), server.Total(), est, runtime)
	return r
}

// fig5 is the big-message PC comparison.
func fig5(c *cells) *Result {
	r := &Result{ID: "fig5", Title: "PC output for big-message", OK: true,
		Paper: "identical findings both implementations: sync → Gsend_message/Grecv_message → MPI_Send/MPI_Recv + communicator"}
	lam, mpich := c.get("big-message", mpi.LAM), c.get("big-message", mpi.MPICH)
	r.judged(lam, mpich)
	for _, x := range []cell{lam, mpich} {
		r.ok(hasSync(x, "/SyncObject/Message/comm-"), "%s: communicator missing", x.res.Impl)
	}
	r.Measured = "sync → send/recv wrappers → MPI p2p + communicator under both implementations"
	r.Output = pcSideBySide(lam, mpich)
	return r
}

// fig6 reproduces the big-message byte histogram calculation.
func fig6(*cells) *Result {
	r := &Result{ID: "fig6", Title: "big-message bytes sent/received", OK: true,
		Paper: "estimates 397.9M of 400M true bytes (-0.5%)"}
	series, runtime := runWithSeries("big-message", mpi.LAM, pperfmark.Params{},
		[]metricPair{
			{"sent", "msg_bytes_sent", resource.WholeProgram()},
			{"recv", "msg_bytes_recv", resource.WholeProgram()},
		})
	params := pperfmark.Get("big-message").Defaults
	truth := float64(2 * params.Iterations * params.MessageSize)
	sent := series["sent"].Histogram()
	estSent := sent.TotalViaMeanRate(sim.Duration(runtime))
	relErr := (estSent - truth) / truth
	r.ok(sent.Total() == truth, "counter %v != truth %v", sent.Total(), truth)
	r.ok(relErr < 0.02 && relErr > -0.15, "estimate error %v out of band", relErr)
	r.Measured = fmt.Sprintf("true %d bytes sent; estimate %.0f (%+.2f%%)", int64(truth), estSent, relErr*100)
	r.Output = fmt.Sprintf("bytes sent/bin: |%s|\nexact %v, estimate %.0f over %v",
		sent.Render(48), sent.Total(), estSent, runtime)
	return r
}

// fig7 is the wrong-way PC comparison, including MPICH's PMPI naming.
func fig7(c *cells) *Result {
	r := &Result{ID: "fig7", Title: "PC output for wrong-way", OK: true,
		Paper: "sync → send/recv wrappers; MPICH drill-down reaches PMPI_Send/PMPI_Recv"}
	lam, mpich := c.get("wrong-way", mpi.LAM), c.get("wrong-way", mpi.MPICH)
	r.judged(lam, mpich)
	r.ok(hasSync(mpich, "PMPI_Send") || hasSync(mpich, "PMPI_Recv"), "MPICH PMPI symbols missing")
	r.Measured = "LAM shows MPI_*; MPICH's weak-symbol build surfaces PMPI_* names"
	r.Output = pcSideBySide(lam, mpich)
	return r
}

// fig8 reproduces the wrong-way byte calculation.
func fig8(*cells) *Result {
	r := &Result{ID: "fig8", Title: "wrong-way bytes sent/received", OK: true,
		Paper: "71.4M sent / 70.5M received of 72M true (-0.9%/-2.1%)"}
	series, runtime := runWithSeries("wrong-way", mpi.LAM, pperfmark.Params{},
		[]metricPair{{"sent", "msg_bytes_sent", resource.WholeProgram()}})
	params := pperfmark.Get("wrong-way").Defaults
	truth := float64(params.Iterations * params.Messages * params.MessageSize)
	sent := series["sent"].Histogram()
	est := sent.TotalViaMeanRate(sim.Duration(runtime))
	relErr := (est - truth) / truth
	r.ok(sent.Total() == truth, "counter %v != truth %v", sent.Total(), truth)
	r.ok(relErr < 0.02 && relErr > -0.15, "estimate error %v out of band", relErr)
	r.Measured = fmt.Sprintf("true %d bytes; estimate %.0f (%+.2f%%)", int64(truth), est, relErr*100)
	r.Output = fmt.Sprintf("bytes sent/bin: |%s|", sent.Render(48))
	return r
}

// fig9 is the random-barrier PC comparison, with MPICH's barrier internals.
func fig9(c *cells) *Result {
	r := &Result{ID: "fig9", Title: "PC output for random-barrier", OK: true,
		Paper: "sync → MPI_Barrier; MPICH exposes PMPI_Sendrecv (+comm/tag) inside; CPUBound → waste_time"}
	lam, mpich := c.get("random-barrier", mpi.LAM), c.get("random-barrier", mpi.MPICH)
	r.judged(lam, mpich)
	r.Measured = "barrier bottleneck both; MPICH shows PMPI_Barrier implemented over PMPI_Sendrecv; waste_time CPU bound"
	r.Output = pcSideBySide(lam, mpich)
	return r
}

// fig10 is the intensive-server PC comparison.
func fig10(c *cells) *Result {
	r := &Result{ID: "fig10", Title: "PC output for intensive-server", OK: true,
		Paper: "sync → Grecv_message → MPI_Recv + communicator; CPUBound also true"}
	lam, mpich := c.get("intensive-server", mpi.LAM), c.get("intensive-server", mpi.MPICH)
	r.judged(lam, mpich)
	r.Measured = "clients wait in Grecv_message/MPI_Recv; server CPU bound"
	r.Output = pcSideBySide(lam, mpich)
	return r
}
