package experiments

import (
	"fmt"
	"math"

	"pperf/internal/cluster"
	"pperf/internal/gprofsim"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/stats"
)

func init() {
	register("fig11", fig11)
	register("fig12", fig12)
	register("fig14", fig14)
	register("fig15", fig15)
	register("fig16", fig16)
	register("fig17", fig17)
	register("fig18", fig18)
	register("fig19", fig19)
	register("fig20", fig20)
}

// fig11 reproduces the intensive-server inclusive-synchronization
// histograms: clients spend almost all time in Grecv_message, almost none in
// Gsend_message; the server spends little in either.
func fig11(*cells) *Result {
	r := &Result{ID: "fig11", Title: "intensive-server inclusive sync time per function", OK: true,
		Paper: "client ≈0.98 of CPU time waiting in Grecv_message vs ≈0.02 in Gsend_message; server low in both"}
	series, runtime := runWithSeries("intensive-server", mpi.LAM, pperfmark.Params{},
		[]metricPair{
			{"recvWait", "sync_wait_inclusive",
				resource.WholeProgram().WithCode("/Code/intensiveserver.c/Grecv_message")},
			{"sendWait", "sync_wait_inclusive",
				resource.WholeProgram().WithCode("/Code/intensiveserver.c/Gsend_message")},
		})
	secs := sim.Time(runtime).Seconds()
	client := "intensive-server{1}"
	server := "intensive-server{0}"
	frac := func(key, proc string) float64 {
		h := series[key].ProcHistogram(proc)
		if h == nil {
			return 0
		}
		return h.Total() / secs
	}
	cr, cs := frac("recvWait", client), frac("sendWait", client)
	sr := frac("recvWait", server)
	r.ok(cr > 0.7, "client Grecv fraction %.2f too low", cr)
	r.ok(cs < 0.2, "client Gsend fraction %.2f too high", cs)
	r.ok(sr < 0.2, "server Grecv fraction %.2f too high", sr)
	r.Measured = fmt.Sprintf("client: Grecv %.2f vs Gsend %.2f; server Grecv %.2f", cr, cs, sr)
	r.Output = fmt.Sprintf("client Grecv_message sync/bin: |%s|\nclient Gsend_message sync/bin: |%s|",
		series["recvWait"].ProcHistogram(client).Render(48),
		series["sendWait"].ProcHistogram(client).Render(48))
	return r
}

// fig12 covers Figs 12 and 13: the Jumpshot comparator's view of
// intensive-server with 3 processes.
func fig12(*cells) *Result {
	r := &Result{ID: "fig12", Title: "Jumpshot views of intensive-server (3 procs)", OK: true,
		Paper: "of 3 processes, ≈2 are executing in MPI_Recv at any time; the timeline shows clients pinned in MPI_Recv"}
	tr := traceProgram(mpi.LAM, 3, func(rk *mpi.Rank, _ []string) {
		c := rk.World()
		if rk.Rank() == 0 {
			for i := 0; i < 2*60; i++ {
				st, _ := c.Recv(rk, nil, 4, mpi.Byte, mpi.AnySource, 1)
				rk.Compute(10 * sim.Millisecond)
				c.Send(rk, nil, 4, mpi.Byte, st.Source, 2)
			}
			return
		}
		for i := 0; i < 60; i++ {
			c.Send(rk, nil, 4, mpi.Byte, 0, 1)
			c.Recv(rk, nil, 4, mpi.Byte, 0, 2)
		}
	})
	avg := tr.AvgConcurrency("MPI_Recv")
	r.ok(math.Abs(avg-2) < 0.4, "avg procs in MPI_Recv = %.2f, want ≈2", avg)
	r.Measured = fmt.Sprintf("average %.2f of 3 processes in MPI_Recv", avg)
	r.Output = tr.StatisticalPreview() + tr.TimeLines(56)
	return r
}

// fig14 is the diffuse-procedure PC run with the lowered CPU threshold.
func fig14(c *cells) *Result {
	r := &Result{ID: "fig14", Title: "PC output for diffuse-procedure", OK: true,
		Paper: "sync → MPI_Barrier; CPU bound in bottleneckProcedure once the threshold is lowered to 0.2"}
	lam, mpich := c.get("diffuse-procedure", mpi.LAM), c.get("diffuse-procedure", mpi.MPICH)
	r.judged(lam, mpich)
	r.Measured = "barrier sync + bottleneckProcedure found at threshold 0.2 under both implementations"
	r.Output = pcSideBySide(lam, mpich)
	return r
}

// fig15 reproduces the CPU-inclusive histogram: one CPU's worth of
// bottleneckProcedure across the application (25% per process at 4 procs,
// ~50% at 2 procs).
func fig15(*cells) *Result {
	r := &Result{ID: "fig15", Title: "diffuse-procedure CPU inclusive", OK: true,
		Paper: "≈1 CPU total in bottleneckProcedure → 25% per process with 4; ~50% with 2 processes"}
	focus := resource.WholeProgram().WithCode("/Code/diffuseprocedure.c/bottleneckProcedure")
	series4, runtime4 := runWithSeries("diffuse-procedure", mpi.LAM, pperfmark.Params{},
		[]metricPair{{"cpu", "cpu_inclusive", focus}})
	frac4 := series4["cpu"].Histogram().Total() / sim.Time(runtime4).Seconds() / 4
	series2, runtime2 := runWithSeries("diffuse-procedure", mpi.LAM, pperfmark.Params{Procs: 2},
		[]metricPair{{"cpu", "cpu_inclusive", focus}})
	frac2 := series2["cpu"].Histogram().Total() / sim.Time(runtime2).Seconds() / 2
	cpus4 := series4["cpu"].Histogram().Total() / sim.Time(runtime4).Seconds()
	r.ok(math.Abs(frac4-0.25) < 0.08, "4-proc per-process fraction %.2f ≉ 0.25", frac4)
	r.ok(math.Abs(frac2-0.5) < 0.12, "2-proc per-process fraction %.2f ≉ 0.5", frac2)
	r.ok(math.Abs(cpus4-1) < 0.25, "total CPUs %.2f ≉ 1", cpus4)
	r.Measured = fmt.Sprintf("total %.2f CPUs; per-process %s at 4 procs, %s at 2 procs",
		cpus4, pct(frac4), pct(frac2))
	r.Output = fmt.Sprintf("bottleneckProcedure CPU/bin (4 procs): |%s|",
		series4["cpu"].Histogram().Render(48))
	return r
}

// fig16 is the Jumpshot timeline of diffuse-procedure.
func fig16(*cells) *Result {
	r := &Result{ID: "fig16", Title: "Jumpshot timeline of diffuse-procedure", OK: true,
		Paper: "each process spends approximately the same total time in MPI_Barrier"}
	n := 3
	tr := traceProgram(mpi.LAM, n, func(rk *mpi.Rank, _ []string) {
		c := rk.World()
		for i := 0; i < 45; i++ {
			if i%n == rk.Rank() {
				rk.Compute(10 * sim.Millisecond)
			}
			c.Barrier(rk)
		}
	})
	var times []float64
	for _, p := range tr.Procs() {
		times = append(times, tr.StateTime(p, "MPI_Barrier").Seconds())
	}
	mean := stats.Mean(times)
	spread := stats.StdDev(times) / mean
	r.ok(spread < 0.2, "barrier time spread %.2f too uneven", spread)
	r.Measured = fmt.Sprintf("per-process MPI_Barrier times balanced within %.0f%% of the mean", spread*100)
	r.Output = tr.TimeLines(56)
	return r
}

// fig17 is the Jumpshot statistical preview of random-barrier.
func fig17(*cells) *Result {
	r := &Result{ID: "fig17", Title: "Jumpshot preview of random-barrier (4 procs)", OK: true,
		Paper: "of 4 processes, ≈3 are executing in MPI_Barrier at any given time"}
	n := 4
	tr := traceProgram(mpi.LAM, n, func(rk *mpi.Rank, _ []string) {
		c := rk.World()
		for i := 0; i < 80; i++ {
			if int(uint32(i)*2654435761%uint32(n*7919))%n == rk.Rank() {
				rk.Compute(50 * sim.Millisecond)
			}
			c.Barrier(rk)
		}
	})
	avg := tr.AvgConcurrency("MPI_Barrier")
	r.ok(avg > 2.4 && avg < 3.6, "avg procs in barrier %.2f, want ≈3", avg)
	r.Measured = fmt.Sprintf("average %.2f of 4 processes in MPI_Barrier", avg)
	r.Output = tr.StatisticalPreview()
	return r
}

// fig18 reproduces the random-barrier inclusive-sync averages: ≈61% under
// LAM and ≈62% under MPICH.
func fig18(*cells) *Result {
	r := &Result{ID: "fig18", Title: "random-barrier sync_wait_inclusive per process", OK: true,
		Paper: "average inclusive sync wait 61% (LAM) / 62% (MPICH), spread across all six processes"}
	measure := func(impl mpi.ImplKind) (float64, string) {
		series, runtime := runWithSeries("random-barrier", impl, pperfmark.Params{},
			[]metricPair{{"sync", "sync_wait_inclusive", resource.WholeProgram()}})
		secs := sim.Time(runtime).Seconds()
		var fr []float64
		for _, p := range series["sync"].Procs() {
			fr = append(fr, series["sync"].ProcHistogram(p).Total()/secs)
		}
		return stats.Mean(fr), series["sync"].Histogram().Render(48)
	}
	lamAvg, lamHist := measure(mpi.LAM)
	mpichAvg, _ := measure(mpi.MPICH)
	r.ok(lamAvg > 0.45 && lamAvg < 0.8, "LAM avg sync %.2f out of band", lamAvg)
	r.ok(mpichAvg > 0.45 && mpichAvg < 0.85, "MPICH avg sync %.2f out of band", mpichAvg)
	r.ok(mpichAvg >= lamAvg-0.05, "MPICH (%.2f) should be ≥ LAM (%.2f) - ε", mpichAvg, lamAvg)
	r.Measured = fmt.Sprintf("average inclusive sync %s (LAM) / %s (MPICH)", pct(lamAvg), pct(mpichAvg))
	r.Output = "LAM aggregate sync/bin: |" + lamHist + "|"
	return r
}

// fig19 is the gprof flat profile of a non-MPI hot-procedure run.
func fig19(*cells) *Result {
	r := &Result{ID: "fig19", Title: "gprof flat profile of hot-procedure", OK: true,
		Paper: "bottleneckProcedure 100% of time; equal call counts; irrelevantProcedures ≈0 µs/call"}
	eng := sim.NewEngine(3)
	w := mpi.NewWorld(eng, cluster.DefaultSpec(1, 1), mpi.NewImpl(mpi.LAM))
	prof := gprofsim.Attach(w)
	w.Register("hot", func(rk *mpi.Rank, _ []string) {
		for i := 0; i < 500; i++ {
			rk.Call("hotprocedure.c", "bottleneckProcedure", func() { rk.Compute(10 * sim.Millisecond) })
			for k := 0; k < 12; k++ {
				rk.Call("hotprocedure.c", fmt.Sprintf("irrelevantProcedure%d", k), func() {
					rk.Compute(10 * sim.Microsecond)
				})
			}
		}
	})
	if _, err := w.LaunchN("hot", 1, nil); err != nil {
		panic(err)
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	snap := prof.Snapshot()
	top := snap.Percent("bottleneckProcedure")
	r.ok(top > 95, "bottleneckProcedure %.1f%%, want ≈100%%", top)
	r.ok(snap.Funcs[0].Name == "bottleneckProcedure", "top function %s", snap.Funcs[0].Name)
	r.Measured = fmt.Sprintf("bottleneckProcedure %.2f%% of self time, %d calls", top, snap.Funcs[0].Calls)
	r.Output = snap.Render()
	return r
}

// fig20 covers hot-procedure and sstwod PC outputs.
func fig20(c *cells) *Result {
	r := &Result{ID: "fig20", Title: "PC output for hot-procedure and sstwod", OK: true,
		Paper: "hot-procedure: CPUBound → bottleneckProcedure; sstwod: sync → exchng2 → MPI_Sendrecv and MPI_Allreduce"}
	hot, sst := c.get("hot-procedure", mpi.LAM), c.get("sstwod", mpi.LAM)
	r.judged(hot, sst)
	r.Measured = "hot-procedure CPU bound in bottleneckProcedure; sstwod sync in exchng2→MPI_Sendrecv and MPI_Allreduce"
	r.Output = "--- hot-procedure ---\n" + hot.res.PC.Render() + "--- sstwod ---\n" + sst.res.PC.Render()
	return r
}
