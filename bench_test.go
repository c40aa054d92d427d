package pperf

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each regenerates the artifact through internal/experiments and
// fails if the paper's qualitative shape is not reproduced), the per-enable
// and per-session costs of the tool, the ablation benches DESIGN.md calls
// out, and the zero-cost guards of the fault and trace subsystems. Per-layer numbers (engine switch, eager message, probe
// fire, MDL compile, histogram add, …) come from the micro drivers of
// `bash bench/run.sh`, not from here.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benches are macro-benchmarks: one iteration regenerates the
// whole artifact, so ns/op is the cost of reproducing that figure.

import (
	"fmt"
	"io"
	"math/bits"
	"path/filepath"
	"strings"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/daemon"
	"pperf/internal/experiments"
	"pperf/internal/faults"
	"pperf/internal/mdl"
	"pperf/internal/metric"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// benchExperiment regenerates one of the paper's artifacts per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatalf("%s did not reproduce: %v", id, res.Notes)
		}
	}
}

// --- tables ---------------------------------------------------------------

func BenchmarkTable1RMAMetrics(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2PPerfMarkMPI1(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3PPerfMarkMPI2(b *testing.B) { benchExperiment(b, "table3") }

// --- figures ----------------------------------------------------------------

func BenchmarkFigure1RMASyncPatterns(b *testing.B)          { benchExperiment(b, "fig1") }
func BenchmarkFigure2MDLCompile(b *testing.B)               { benchExperiment(b, "fig2") }
func BenchmarkFigure3SmallMessagesPC(b *testing.B)          { benchExperiment(b, "fig3") }
func BenchmarkFigure4SmallMessagesBytes(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFigure5BigMessagePC(b *testing.B)             { benchExperiment(b, "fig5") }
func BenchmarkFigure6BigMessageBytes(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFigure7WrongWayPC(b *testing.B)               { benchExperiment(b, "fig7") }
func BenchmarkFigure8WrongWayBytes(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFigure9RandomBarrierPC(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFigure10IntensiveServerPC(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFigure11IntensiveServerHist(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFigure12JumpshotIntensiveServer(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure14DiffuseProcedurePC(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFigure15DiffuseProcedureHist(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFigure16JumpshotDiffuse(b *testing.B)         { benchExperiment(b, "fig16") }
func BenchmarkFigure17JumpshotRandomBarrier(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkFigure18RandomBarrierSync(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFigure19GprofHotProcedure(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkFigure20HotProcedureSstwodPC(b *testing.B)    { benchExperiment(b, "fig20") }
func BenchmarkFigure21WinscpwsyncPC(b *testing.B)           { benchExperiment(b, "fig21") }
func BenchmarkFigure22OnedPC(b *testing.B)                  { benchExperiment(b, "fig22") }
func BenchmarkFigure23SpawnResourceHierarchy(b *testing.B)  { benchExperiment(b, "fig23") }
func BenchmarkFigure24SpawnPC(b *testing.B)                 { benchExperiment(b, "fig24") }
func BenchmarkPrestaComparison(b *testing.B)                { benchExperiment(b, "presta") }

// --- the suite, recorded --------------------------------------------------------

// suiteSweep is what one rep of the `suite-sweep` benchmark workload runs:
// the suite's programs, each under the personalities the workload picks.
var suiteSweep = []struct {
	prog string
	impl mpi.ImplKind
}{
	{"big-message", mpi.LAM}, {"intensive-server", mpi.MPICH2}, {"random-barrier", mpi.LAM},
	{"diffuse-procedure", mpi.LAM}, {"hot-procedure", mpi.MPICH},
	{"system-time", mpi.LAM}, {"system-time", mpi.MPICH}, {"system-time", mpi.MPICH2},
	{"allcount", mpi.LAM}, {"allcount", mpi.MPICH}, {"allcount", mpi.MPICH2},
	{"wincreate-blast", mpi.LAM}, {"wincreate-blast", mpi.MPICH}, {"wincreate-blast", mpi.MPICH2},
	{"winfence-sync", mpi.MPICH2}, {"winscpw-sync", mpi.LAM}, {"winscpw-sync", mpi.MPICH2},
	{"spawncount", mpi.LAM}, {"spawncount", mpi.MPICH}, {"spawncount", mpi.MPICH2},
	{"spawnsync", mpi.LAM}, {"spawnwin-sync", mpi.LAM}, {"oned", mpi.MPICH},
}

// BenchmarkSuiteSweep is one rep of the `suite-sweep` benchmark workload as a
// root benchmark, so `make alloc-profile BENCH=BenchmarkSuiteSweep` sizes the
// sampling path end to end (daemon tick → front end → stream recorder →
// chunk write) beside the Consultant's search: the 23 program × personality
// runs, each recorded straight into one store and committed.
func BenchmarkSuiteSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := perfdb.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range suiteSweep {
			rec, err := st.NewRecorder()
			if err != nil {
				b.Fatal(err)
			}
			res, err := pperfmark.Run(r.prog, pperfmark.RunOptions{Impl: r.impl, Seed: 7001 + uint64(j), Record: rec})
			if err != nil {
				st.Discard(rec)
				b.Fatalf("%s/%v: %v", r.prog, r.impl, err)
			}
			verdict := ""
			if res.PC != nil {
				verdict = res.PC.Export().String()
			}
			if _, _, err := st.Commit(rec, perfdb.AddMeta{Verdict: verdict}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- what-if replay ----------------------------------------------------------

// BenchmarkReplayWhatIf is the `replay-whatif` benchmark workload as a root
// benchmark, so `make alloc-profile BENCH=BenchmarkReplayWhatIf` sizes the
// analysis plane (ReplaySource → View → Consultant → report) the way the
// Figure 3 benchmark sizes the simulated message path: record random-barrier
// once, load it, then per iteration replay it under the eight threshold
// overrides the workload uses, rendering and judging each replay as the
// workload does.
func BenchmarkReplayWhatIf(b *testing.B) {
	path := filepath.Join(b.TempDir(), "random-barrier.ppdb")
	rec, err := perfdb.NewStreamRecorder(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pperfmark.Run("random-barrier", pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Record: rec}); err != nil {
		b.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
	a, err := perfdb.LoadAny(path)
	if err != nil {
		b.Fatal(err)
	}
	grid := []pperfmark.ReplayOptions{
		{}, {SyncThreshold: 0.1}, {SyncThreshold: 0.4}, {SyncThreshold: 0.999999},
		{IOThreshold: 0.05}, {CPUThreshold: 0.1}, {CPUThreshold: 0.6},
		{SyncThreshold: 0.05, IOThreshold: 0.05, CPUThreshold: 0.05},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range grid {
			res, err := pperfmark.ReplayWith(a, o)
			if err != nil {
				b.Fatal(err)
			}
			if res.PC == nil {
				b.Fatal("replay ran no Consultant")
			}
			if res.PC.Render() == "" || pperfmark.Judge(res) == nil {
				b.Fatal("replay rendered or judged nothing")
			}
		}
	}
}

// BenchmarkLoadAny is the read layer of `replay-whatif` on its own: the
// three programs the workload's replay fixtures record, each recorded once
// under LAM, then per iteration loaded back with perfdb.LoadAny (frame
// headers hopped for the event count, then every chunk decoded into the
// list). `make alloc-profile BENCH=BenchmarkLoadAny` sizes it.
func BenchmarkLoadAny(b *testing.B) {
	var files []string
	for _, prog := range []string{"random-barrier", "winfence-sync", "intensive-server"} {
		path := filepath.Join(b.TempDir(), prog+".ppdb")
		rec, err := perfdb.NewStreamRecorder(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pperfmark.Run(prog, pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Record: rec}); err != nil {
			b.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		files = append(files, path)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			a, err := perfdb.LoadAny(f)
			if err != nil {
				b.Fatal(err)
			}
			if len(a.Events) == 0 {
				b.Fatalf("%s loaded no events", f)
			}
		}
	}
}

// --- traced session over TCP --------------------------------------------------

// BenchmarkTracedTCP is one session of the `traced-tcp` benchmark workload as
// a root benchmark, so `make alloc-profile BENCH=BenchmarkTracedTCP` sizes the
// trace plane (span rings → packed shards over loopback TCP → timeline merge
// → Perfetto export → critical path) and the live wire channels: sstwod under
// the Consultant in a session with tracing armed and daemon traffic on TCP,
// then everything the workload does with the timeline.
func BenchmarkTracedTCP(b *testing.B) {
	o, prog, params, err := pperfmark.SessionOptions("sstwod", pperfmark.RunOptions{
		Impl: mpi.LAM, Seed: 7, Params: pperfmark.Params{Iterations: 300}, Trace: &trace.Config{},
	})
	if err != nil {
		b.Fatal(err)
	}
	o.UseTCP = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSession(o)
		if err != nil {
			b.Fatal(err)
		}
		s.Register("sstwod", prog)
		if err := s.Launch("sstwod", params.Procs, nil); err != nil {
			b.Fatal(err)
		}
		if err := consultant.New(s.FE, s.Eng, pperfmark.ScaledPCConfig()).Start(); err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		tl := s.FE.Timeline()
		s.Close()
		if spans := tl.Spans(); len(spans) == 0 || tl.Lost() != 0 {
			b.Fatalf("timeline holds %d spans, lost %d", len(spans), tl.Lost())
		}
		if err := trace.WriteChrome(io.Discard, tl); err != nil {
			b.Fatal(err)
		}
		if trace.Analyze(tl).Render() == "" {
			b.Fatal("empty critical-path report")
		}
	}
}

// --- the store and the sync plane ----------------------------------------------

// BenchmarkStoreCycle is the `store-cycle` benchmark workload as a root
// benchmark, so `make alloc-profile BENCH=BenchmarkStoreCycle` sizes the
// archive read side under the store verbs and the sync plane (chunk cursor →
// View fold, diff and trend over the views, verify on push and on pull):
// three recordings of random-barrier are made once, then every iteration
// takes them through add → OpenRun + SummaryJSON → Compare → Trend →
// Serve/Push/re-push/Pull → Remove/GC in fresh stores.
func BenchmarkStoreCycle(b *testing.B) {
	var files []string
	for i, iters := range []int{200, 220, 240} {
		path := filepath.Join(b.TempDir(), fmt.Sprintf("rb-%d.ppdb", i))
		rec, err := perfdb.NewStreamRecorder(path)
		if err != nil {
			b.Fatal(err)
		}
		opt := pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Params: pperfmark.Params{Iterations: iters}, Record: rec}
		if _, err := pperfmark.Run("random-barrier", opt); err != nil {
			b.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		files = append(files, path)
	}
	open := func() *perfdb.Store {
		st, err := perfdb.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local, served, puller := open(), open(), open()
		var views []*perfdb.RunView
		for _, f := range files {
			m, err := local.AddFile(f, perfdb.AddMeta{})
			if err != nil {
				b.Fatal(err)
			}
			rv, err := local.OpenRun(m.ID)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rv.SummaryJSON(); err != nil {
				b.Fatal(err)
			}
			views = append(views, rv)
		}
		if rep, err := perfdb.Compare(views[0], views[1], perfdb.CompareOptions{}); err != nil || rep.Render() == "" {
			b.Fatalf("compare: %v", err)
		}
		if rep, err := perfdb.Trend(views, perfdb.TrendOptions{}); err != nil || rep.Render() == "" {
			b.Fatalf("trend: %v", err)
		}
		srv, err := perfdb.Serve(served, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range local.Runs() {
			for _, wantDeduped := range []bool{false, true} {
				if res, err := perfdb.Push(local, m.ID, srv.Addr(), perfdb.DefaultSyncConfig()); err != nil || res.Deduped != wantDeduped {
					b.Fatalf("push %s: %+v, %v", m.ID, res, err)
				}
			}
		}
		if res, _, err := perfdb.Pull(puller, srv.Addr(), "", perfdb.DefaultSyncConfig()); err != nil || len(res) != len(files) {
			b.Fatalf("pull: %+v, %v", res, err)
		}
		srv.Close()
		if err := local.Remove("r0001"); err != nil {
			b.Fatal(err)
		}
		if _, err := local.GC(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the enable path and the session ------------------------------------------

// BenchmarkInstantiate is the per-process cost of an enable — what the
// Consultant's search repeats most: the six pairs its message refinement
// keeps on MPI_Send (three metrics, whole-program and under a
// communicator-and-tag focus) instantiated on one process and removed again.
// internal/mdl's TestInstantiateAllocationBudget bounds the allocs/op at 40.
func BenchmarkInstantiate(b *testing.B) {
	r := idleRank(b)
	foci := []resource.Focus{resource.WholeProgram(), resource.WholeProgram().WithSync("/SyncObject/Message/comm-1/tag-7")}
	var ins [6]*mdl.Instance
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, name := range []string{"msgs_sent", "msg_bytes_sent", "sync_wait_inclusive"} {
			for k, f := range foci {
				in, err := mdl.StdLib().Metric(name).Instantiate(benchTarget{r}, f)
				if err != nil {
					b.Fatal(err)
				}
				ins[2*j+k] = in
			}
		}
		for _, in := range ins {
			in.Remove()
		}
	}
}

// idleRank returns a rank of a launched but never run one-process world.
func idleRank(b *testing.B) *mpi.Rank {
	w := mpi.NewWorld(sim.NewEngine(1), cluster.DefaultSpec(1, 1), mpi.NewImpl(mpi.LAM))
	w.Register("idle", func(*mpi.Rank, []string) {})
	if _, err := w.LaunchN("idle", 1, nil); err != nil {
		b.Fatal(err)
	}
	return w.Ranks()[0]
}

// BenchmarkNewSession is the per-session cost of the tool itself: cluster,
// world, front end and one daemon per node around the process's one compiled
// standard library, built and closed with nothing launched.
func BenchmarkNewSession(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSession(core.Options{Impl: mpi.LAM})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// --- ablations (DESIGN.md) ---------------------------------------------------

// BenchmarkAblationEagerThreshold compares big-message-style exchange with
// the protocol switch above vs below the message size: rendezvous couples
// the sender to the receiver and dominates the runtime shape.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	const msgBytes = 100000
	runWith := func(threshold int) sim.Time {
		eng := sim.NewEngine(1)
		impl := mpi.NewImpl(mpi.LAM)
		impl.Cost.EagerThreshold = threshold
		w := mpi.NewWorld(eng, cluster.DefaultSpec(2, 1), impl)
		w.Register("x", func(r *mpi.Rank, _ []string) {
			c := r.World()
			other := 1 - r.Rank()
			for i := 0; i < 200; i++ {
				if r.Rank() == 0 {
					c.Send(r, nil, msgBytes, mpi.Byte, other, 0)
					c.Recv(r, nil, msgBytes, mpi.Byte, other, 0)
				} else {
					c.Recv(r, nil, msgBytes, mpi.Byte, other, 0)
					c.Send(r, nil, msgBytes, mpi.Byte, other, 0)
				}
				r.Compute(time500us)
			}
		})
		if _, err := w.LaunchN("x", 2, nil); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		return eng.Now()
	}
	var rendezvous, eager sim.Time
	for i := 0; i < b.N; i++ {
		rendezvous = runWith(64 * 1024) // below message size → handshake
		eager = runWith(256 * 1024)     // above → fire-and-forget
	}
	if eager >= rendezvous {
		b.Fatalf("eager (%v) should beat rendezvous (%v) for this shape", eager, rendezvous)
	}
	b.ReportMetric(rendezvous.Seconds()/eager.Seconds(), "rendezvous/eager-runtime")
}

const time500us = 500 * sim.Microsecond

// BenchmarkAblationBinFolding compares the fixed-memory folding histogram
// against an unfolded one: same totals, bounded memory, coarser bins.
func BenchmarkAblationBinFolding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		folding := metric.NewHistogram(100, 200*sim.Millisecond)
		wide := metric.NewHistogram(100000, 200*sim.Millisecond)
		for t := 0; t < 50000; t++ {
			at := sim.Time(t) * sim.Time(100*sim.Millisecond)
			folding.Add(at, 1)
			wide.Add(at, 1)
		}
		if folding.Total() != wide.Total() {
			b.Fatalf("folding lost mass: %v vs %v", folding.Total(), wide.Total())
		}
		// Each fold doubles the bin width.
		folds := bits.Len64(uint64(folding.BinWidth()/(200*sim.Millisecond))) - 1
		if folds == 0 {
			b.Fatal("expected folds")
		}
		b.ReportMetric(float64(folds), "folds")
		b.ReportMetric(folding.BinWidth().Seconds(), "final-bin-s")
	}
}

// BenchmarkAblationSpawnMethods measures the spawn-operation inflation of
// the intercept method versus attach (§4.2.2).
func BenchmarkAblationSpawnMethods(b *testing.B) {
	measure := func(method daemon.SpawnMethod) sim.Duration {
		res, err := pperfmark.Run("spawncount", pperfmark.RunOptions{
			Impl: mpi.LAM, Spawn: method, DisablePC: true,
			Params: pperfmark.Params{Children: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		return sim.Duration(res.RunTime)
	}
	var intercept, attach sim.Duration
	for i := 0; i < b.N; i++ {
		intercept = measure(daemon.SpawnIntercept)
		attach = measure(daemon.SpawnAttach)
	}
	if intercept <= attach {
		b.Fatalf("intercept (%v) should inflate the spawn vs attach (%v)", intercept, attach)
	}
	b.ReportMetric((intercept-attach).Seconds()*1000, "intercept-inflation-ms")
}

// BenchmarkAblationProbeOverhead measures instrumentation perturbation: the
// virtual runtime of an instrumented run versus an uninstrumented one.
func BenchmarkAblationProbeOverhead(b *testing.B) {
	runWith := func(perProbe sim.Duration, instrument bool) sim.Time {
		eng := sim.NewEngine(1)
		w := mpi.NewWorld(eng, cluster.DefaultSpec(2, 1), mpi.NewImpl(mpi.LAM))
		w.Register("x", func(r *mpi.Rank, _ []string) {
			r.Probes().PerProbeCost = perProbe
			c := r.World()
			for i := 0; i < 5000; i++ {
				if r.Rank() == 0 {
					c.Send(r, nil, 4, mpi.Byte, 1, 0)
				} else {
					c.Recv(r, nil, 4, mpi.Byte, 0, 0)
				}
			}
		})
		if _, err := w.LaunchN("x", 2, nil); err != nil {
			b.Fatal(err)
		}
		if instrument {
			for _, r := range w.Ranks() {
				cm := mdl.StdLib().Metric("msgs_sent")
				if _, err := cm.Instantiate(benchTarget{r}, resource.WholeProgram()); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		return eng.Now()
	}
	var bare, instrumented sim.Time
	for i := 0; i < b.N; i++ {
		bare = runWith(0, false)
		instrumented = runWith(2*sim.Microsecond, true)
	}
	if instrumented <= bare {
		b.Fatal("instrumentation should perturb the run")
	}
	b.ReportMetric((instrumented.Seconds()/bare.Seconds()-1)*100, "perturbation-%")
}

// benchTarget adapts a Rank for direct metric instantiation in benches.
type benchTarget struct{ r *mpi.Rank }

func (t benchTarget) Probes() *probe.Process  { return t.r.Probes() }
func (t benchTarget) WallNow() sim.Time       { return t.r.Now() }
func (t benchTarget) CPUNow() sim.Duration    { return t.r.CPUTime() }
func (t benchTarget) SystemNow() sim.Duration { return t.r.SystemTimeAt(t.r.Now()) }

// BenchmarkAblationPCThreshold reproduces the diffuse-procedure threshold
// sensitivity: found at 0.2, missed at the default 0.3 (§5.1.6). The run is
// recorded once, under the 0.2 the suite uses for it, and replayed per
// iteration at each threshold.
func BenchmarkAblationPCThreshold(b *testing.B) {
	path := filepath.Join(b.TempDir(), "diffuse-procedure.ppdb")
	rec, err := perfdb.NewStreamRecorder(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pperfmark.Run("diffuse-procedure", pperfmark.RunOptions{Impl: mpi.LAM, Record: rec}); err != nil {
		b.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
	a, err := perfdb.LoadAny(path)
	if err != nil {
		b.Fatal(err)
	}
	findsAt := func(threshold float64) bool {
		res, err := pperfmark.ReplayWith(a, pperfmark.ReplayOptions{CPUThreshold: threshold})
		if err != nil {
			b.Fatal(err)
		}
		return res.PC.HasFinding("CPUBound", "bottleneckProcedure")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findsAt(0.3) {
			b.Fatal("default threshold should miss the 25% bottleneck")
		}
		if !findsAt(0.2) {
			b.Fatal("0.2 threshold should find the bottleneck")
		}
	}
}

// --- fault-injection overhead ------------------------------------------------

// benchFaultRun executes one suite program under the tool with the given
// fault plan (nil = fault hooks fully cold) and returns the virtual runtime.
func benchFaultRun(b *testing.B, plan *faults.Plan) sim.Time {
	b.Helper()
	res, err := pperfmark.Run("random-barrier", pperfmark.RunOptions{
		Impl: mpi.LAM, DisablePC: true, Faults: plan,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.RunTime
}

// BenchmarkFaultsDisabled is the baseline cost of carrying the fault
// subsystem without a plan: the nil network overlay, the daemon's
// direct-send fast path, and heartbeats off. Its ns/op should be
// indistinguishable from a build without fault support.
func BenchmarkFaultsDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFaultRun(b, nil)
	}
}

// BenchmarkFaultsArmedIdle arms an empty plan — heartbeats, liveness monitor
// and network overlay live, but no fault ever fires — and checks that the
// machinery does not perturb the simulated application at all: the virtual
// runtime must equal the hooks-cold run's exactly.
func BenchmarkFaultsArmedIdle(b *testing.B) {
	var cold, idle sim.Time
	for i := 0; i < b.N; i++ {
		cold = benchFaultRun(b, nil)
		idle = benchFaultRun(b, faults.New())
	}
	if cold != idle {
		b.Fatalf("armed-but-idle fault machinery perturbed the run: %v vs %v", idle, cold)
	}
}

// BenchmarkFaultedSession measures the resilience machinery at work: a
// supervised daemon crash on node1 that the supervisor respawns, and six
// frames dropped on node0's transport that the outbox replays. Each
// iteration checks the run recovered: node1's daemon is on its second
// incarnation, coverage is back to 1.0, and the fault log names both faults.
func BenchmarkFaultedSession(b *testing.B) {
	const text = "restarts=2; t=1s crash-daemon node1 restartable; t=5ms drop-transport node0 n=6"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := faults.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pperfmark.Run("random-barrier", pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Faults: plan})
		if err != nil {
			b.Fatal(err)
		}
		log := strings.Join(res.FaultLog, "\n")
		if st := res.Session.FE.Supervisor().Stats()["node1"]; st.Incarnation != 2 || res.Coverage != 1 ||
			!strings.Contains(log, "crash-daemon node1") || !strings.Contains(log, "drop-transport node0") {
			b.Fatalf("%s: node1 %+v, coverage %v, fault log:\n%s", text, st, res.Coverage, log)
		}
	}
}

// --- tracing overhead --------------------------------------------------------

// benchTraceRun executes one suite program under the tool with tracing armed
// or cold (nil config) and returns the virtual runtime.
func benchTraceRun(b *testing.B, cfg *trace.Config) sim.Time {
	b.Helper()
	res, err := pperfmark.Run("random-barrier", pperfmark.RunOptions{
		Impl: mpi.LAM, DisablePC: true, Trace: cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.RunTime
}

// BenchmarkTraceDisabled is the baseline cost of carrying the trace
// subsystem without arming it: every hook site is a nil pointer check. Its
// ns/op should be indistinguishable from a build without trace support.
func BenchmarkTraceDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchTraceRun(b, nil)
	}
}

// BenchmarkTraceArmed records the full span stream and checks the guarantee
// that tracing never perturbs the simulated application: the virtual runtime
// must equal the hooks-cold run's exactly.
func BenchmarkTraceArmed(b *testing.B) {
	var cold, armed sim.Time
	for i := 0; i < b.N; i++ {
		cold = benchTraceRun(b, nil)
		armed = benchTraceRun(b, &trace.Config{})
	}
	if cold != armed {
		b.Fatalf("armed tracing perturbed the run: %v vs %v", armed, cold)
	}
}
