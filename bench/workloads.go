package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"pperf/internal/cluster"
	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/daemon"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// repResult is what one repetition of a workload reports.
type repResult struct {
	// Ops counts the workload's unit of work (workloadDef.OpUnit).
	Ops float64 `json:"ops"`
	// LatMS holds the latency of every timed call (workloadDef.LatOp).
	LatMS []float64 `json:"lat_ms"`
	// Attempted and Failed count timed calls and those whose call or
	// correctness checks failed; Failures keeps the first few messages.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the SHA-256 over every rendered report, verdict and virtual
	// run time of the rep: identical inputs must give identical digests.
	Digest string `json:"digest"`
	// ArtifactBytes totals what the rep leaves for the user.
	ArtifactBytes int64 `json:"artifact_bytes"`
	// Counts are layer counters read at the harness's call sites; Maxes
	// are the counters that are high-water marks, not sums.
	Counts map[string]float64 `json:"counts,omitempty"`
	Maxes  map[string]float64 `json:"maxes,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// repEnv is the state one repetition runs in.
type repEnv struct {
	sc      *scale
	seed    uint64
	variant string
	fx      *fixtureManifest
	fxDir   string
	tmp     string   // scratch directory, fresh per rep
	sp      *spanRec // nil unless this is an attribution rep
	res     repResult
	dig     hash.Hash
}

// workloadFuncs maps workload names to their rep bodies.
var workloadFuncs = map[string]func(*repEnv) error{
	"p2p-flood":     p2pFlood,
	"suite-sweep":   suiteSweep,
	"traced-tcp":    tracedTCP,
	"replay-whatif": replayWhatIf,
	"store-cycle":   storeCycle,
}

// runRep runs one repetition of a workload in dir tmp. An error means the
// rep could not run at all; failed checks are counted in the result.
func runRep(name, variant string, sc *scale, seed uint64, fxDir, tmp string, sp *spanRec) (*repResult, error) {
	w := workloadByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if variant != "" && !slices.Contains(w.Variants, variant) {
		return nil, fmt.Errorf("workload %s has no variant %q (have %s)", name, variant, strings.Join(w.Variants, ", "))
	}
	fx, err := loadFixtures(fxDir, seed, sc)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	e := &repEnv{sc: sc, seed: seed, variant: variant, fx: fx, fxDir: fxDir, tmp: tmp, sp: sp, dig: sha256.New()}
	e.res = repResult{Counts: map[string]float64{}, Maxes: map[string]float64{}}
	if err := workloadFuncs[name](e); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	e.res.Digest = hex.EncodeToString(e.dig.Sum(nil))
	if sp != nil {
		e.res.Spans = sp.spans
	}
	return &e.res, nil
}

// op runs one timed call. Its latency is sampled; an error (the call's own
// or a failed correctness check) counts the call as failed.
func (e *repEnv) op(f func() error) {
	t0 := time.Now()
	err := f()
	e.res.LatMS = append(e.res.LatMS, float64(time.Since(t0))/1e6)
	e.res.Attempted++
	if err != nil {
		e.res.Failed++
		if len(e.res.Failures) < 8 {
			e.res.Failures = append(e.res.Failures, err.Error())
		}
	}
}

// digest folds rendered output into the rep's result digest.
func (e *repEnv) digest(parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(e.dig, "%d:", len(p))
		e.dig.Write([]byte(p))
	}
}

func (e *repEnv) count(name string, v float64) { e.res.Counts[name] += v }

func (e *repEnv) max(name string, v float64) {
	if v > e.res.Maxes[name] {
		e.res.Maxes[name] = v
	}
}

func (e *repEnv) countPC(pc *consultant.Consultant) {
	if pc == nil {
		return
	}
	tested, trueN, pruned := pc.Stats()
	e.count("consultant.tested", float64(tested))
	e.count("consultant.true", float64(trueN))
	e.count("consultant.pruned", float64(pruned))
}

// layout reproduces pperfmark.Run's default placement (at most two ranks
// per node), for the sessions the harness builds itself.
func layout(name string, p pperfmark.Params) (nodes, cpus int) {
	switch {
	case strings.HasPrefix(name, "spawn"):
		nodes = p.Children + 1
	case p.Procs <= 2:
		nodes = 2
	default:
		nodes = (p.Procs + 1) / 2
	}
	cpus = 2
	if p.Procs <= nodes {
		cpus = 1
	}
	return nodes, cpus
}

// sessionOptions are the tool settings pperfmark.Run uses (50 ms sampling
// and bins), for the sessions the harness builds itself.
func sessionOptions(impl mpi.ImplKind, nodes, cpus int, seed uint64) core.Options {
	dcfg := daemon.DefaultConfig()
	dcfg.SampleInterval = 50 * sim.Millisecond
	return core.Options{
		Impl: impl, Nodes: nodes, CPUsPerNode: cpus, Seed: seed,
		Daemon: &dcfg, BinWidth: 50 * sim.Millisecond,
	}
}

// --- p2p-flood ---------------------------------------------------------------

// p2pFlood runs small-messages under the full tool. The ablation variants
// run the same program with layers taken away: "nopc" without the
// Consultant, "idle" with a session attached but nothing enabled, "bare"
// with no tool at all.
func p2pFlood(e *repEnv) error {
	const name = "small-messages"
	params := pperfmark.Params{Iterations: e.sc.FloodIters}
	seed := simSeed(e.seed, 0)
	entry := pperfmark.Get(name)
	e.op(func() error {
		switch e.variant {
		case "bare", "idle":
			prog, p, err := pperfmark.Program(name, params)
			if err != nil {
				return err
			}
			nodes, cpus := layout(name, p)
			if e.variant == "bare" {
				eng := sim.NewEngine(seed)
				w := mpi.NewWorld(eng, cluster.DefaultSpec(nodes, cpus), mpi.NewImpl(mpi.LAM))
				w.Register(name, prog)
				if _, err := w.LaunchN(name, p.Procs, nil); err != nil {
					return err
				}
				return eng.Run()
			}
			s, err := core.NewSession(sessionOptions(mpi.LAM, nodes, cpus, seed))
			if err != nil {
				return err
			}
			defer s.Close()
			s.Register(name, prog)
			if err := s.Launch(name, p.Procs, nil); err != nil {
				return err
			}
			return s.Run()
		}
		res, err := pperfmark.Run(name, pperfmark.RunOptions{Impl: mpi.LAM, Seed: seed, Params: params, DisablePC: e.variant == "nopc"})
		if err != nil {
			return err
		}
		msgs := entry.ExpectedBytesSent(res.Params) / float64(res.Params.MessageSize)
		e.res.Ops = msgs
		e.count("probe.execs", float64(res.ProbeExecs))
		e.count("probe.execs_per_msg", float64(res.ProbeExecs)/msgs)
		if res.PC == nil {
			return nil
		}
		var pc string
		e.sp.do("consultant.render", func() { pc = renderPC(res) })
		var v *pperfmark.Verdict
		e.sp.do("pperfmark.judge", func() { v = pperfmark.Judge(res) })
		e.countPC(res.PC)
		text := reportText(res, pc, v)
		e.digest(text)
		e.res.ArtifactBytes += int64(len(text))
		if e.sc.FloodStrict {
			if !v.Pass {
				return fmt.Errorf("%s verdict: %s", name, strings.Join(v.Problems, "; "))
			}
			return nil
		}
		if got, want := res.BytesSent.Total(), entry.ExpectedBytesSent(res.Params); got != want {
			return fmt.Errorf("%s counted %.0f message bytes, expected %.0f", name, got, want)
		}
		return nil
	})
	return nil
}

// --- suite-sweep -------------------------------------------------------------

// suiteSweep runs the rep's programs, each recorded straight into one
// fresh store (the -db path) and judged. Variant "norecord" leaves the
// recorder out.
func suiteSweep(e *repEnv) error {
	record := e.variant != "norecord"
	var st *perfdb.Store
	if record {
		var err error
		if st, err = perfdb.Open(filepath.Join(e.tmp, "store")); err != nil {
			return err
		}
	}
	texts := make([]string, len(e.sc.Sweep))
	for i, pr := range e.sc.Sweep {
		e.op(func() error {
			opt := pperfmark.RunOptions{Impl: pr.Impl, Seed: simSeed(e.seed, i), Params: pr.Params}
			var rec *perfdb.StreamRecorder
			if record {
				var err error
				if rec, err = st.NewRecorder(); err != nil {
					return err
				}
				opt.Record = rec
			}
			res, err := pperfmark.Run(pr.Prog, opt)
			if err != nil {
				if rec != nil {
					st.Discard(rec)
				}
				return fmt.Errorf("%s: %w", pr, err)
			}
			if rec != nil {
				verdict := ""
				if res.PC != nil {
					verdict = res.PC.Export().String()
				}
				var m perfdb.RunMeta
				e.sp.do("perfdb.commit", func() { m, _, err = st.Commit(rec, perfdb.AddMeta{Verdict: verdict}) })
				if err != nil {
					return fmt.Errorf("%s: commit: %w", pr, err)
				}
				e.count("perfdb.rec_events", float64(m.Events))
				e.count("perfdb.rec_bytes", float64(m.Bytes))
				e.max("perfdb.rec_peak_buffered", float64(rec.PeakBufferedEvents()))
				e.res.ArtifactBytes += m.Bytes
			}
			var pc string
			e.sp.do("consultant.render", func() { pc = renderPC(res) })
			var v *pperfmark.Verdict
			e.sp.do("pperfmark.judge", func() { v = pperfmark.Judge(res) })
			e.countPC(res.PC)
			e.count("probe.execs", float64(res.ProbeExecs))
			texts[i] = reportText(res, pc, v)
			if !v.Pass {
				return fmt.Errorf("%s verdict: %s", pr, strings.Join(v.Problems, "; "))
			}
			return nil
		})
	}
	e.res.Ops = float64(len(e.sc.Sweep))
	e.digest(texts...)
	if !record {
		for _, t := range texts {
			e.res.ArtifactBytes += int64(len(t))
		}
	}
	return nil
}

// --- traced-tcp --------------------------------------------------------------

// tracedTCP runs the rep's programs in sessions the harness builds itself,
// with tracing armed and daemon traffic on loopback TCP, then exports and
// analyses each timeline. Variants "inproc" (no TCP) and "inproc-untraced"
// (no TCP, no tracing) are the ablation rungs.
func tracedTCP(e *repEnv) error {
	tcp := e.variant == ""
	traced := e.variant != "inproc-untraced"
	for i, pr := range e.sc.Traced {
		e.op(func() error { return e.tracedSession(pr, simSeed(e.seed, i), tcp, traced) })
	}
	return nil
}

func (e *repEnv) tracedSession(pr progRun, seed uint64, tcp, traced bool) error {
	prog, params, err := pperfmark.Program(pr.Prog, pr.Params)
	if err != nil {
		return err
	}
	nodes, cpus := layout(pr.Prog, params)
	opts := sessionOptions(pr.Impl, nodes, cpus, seed)
	opts.UseTCP = tcp
	if traced {
		opts.Trace = &trace.Config{}
	}
	var s *core.Session
	e.sp.do("core.new_session", func() { s, err = core.NewSession(opts) })
	if err != nil {
		return fmt.Errorf("%s: %w", pr, err)
	}
	err = e.driveSession(pr, s, prog, params.Procs)
	tl := s.FE.Timeline()
	e.sp.do("core.close", s.Close)
	if err != nil || !traced {
		return err
	}
	return e.exportTimeline(pr, tl)
}

// driveSession launches the program under the Consultant, runs the session
// to completion and reads its report and counters.
func (e *repEnv) driveSession(pr progRun, s *core.Session, prog mpi.Program, procs int) (err error) {
	e.sp.do("core.launch", func() {
		s.Register(pr.Prog, prog)
		err = s.Launch(pr.Prog, procs, nil)
	})
	if err != nil {
		return fmt.Errorf("%s: launch: %w", pr, err)
	}
	pc := consultant.New(s.FE, s.Eng, pperfmark.ScaledPCConfig())
	e.sp.do("consultant.start", func() { err = pc.Start() })
	if err != nil {
		return fmt.Errorf("%s: consultant: %w", pr, err)
	}
	e.sp.do("core.run", func() { err = s.Run() })
	if err != nil {
		return fmt.Errorf("%s: run: %w", pr, err)
	}
	var report string
	e.sp.do("consultant.render", func() { report = pc.Render() })
	e.countPC(pc)
	e.count("probe.execs", float64(s.ProbeExecutions()))
	e.digest(pr.String(), s.Eng.Now().String(), report)
	e.res.ArtifactBytes += int64(len(report))
	ws := s.WireStats()
	e.count("wire.ctl_frames", float64(ws[wire.ChanCtl].Frames))
	e.count("wire.bulk_frames", float64(ws[wire.ChanBulk].Frames))
	for _, ch := range []string{wire.ChanCtl, wire.ChanBulk} {
		e.count("wire.retries", float64(ws[ch].Retries))
		e.count("wire.reconnects", float64(ws[ch].Reconnects))
		e.count("wire.failures", float64(ws[ch].Failures))
	}
	return nil
}

// exportTimeline merges, exports and analyses a finished session's trace,
// and checks the export against the timeline.
func (e *repEnv) exportTimeline(pr progRun, tl *trace.Timeline) (err error) {
	var spans []trace.Span
	e.sp.do("trace.merge", func() { spans = tl.Spans() })
	var buf bytes.Buffer
	e.sp.do("trace.export", func() { err = trace.WriteChrome(&buf, tl) })
	if err != nil {
		return fmt.Errorf("%s: export: %w", pr, err)
	}
	if err := os.WriteFile(filepath.Join(e.tmp, pr.Prog+".json"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	var cp string
	e.sp.do("trace.critpath", func() { cp = trace.Analyze(tl).Render() })
	e.res.Ops += float64(len(spans))
	e.res.ArtifactBytes += int64(buf.Len() + len(cp))
	e.count("trace.spans", float64(len(spans)))
	e.count("trace.lost", float64(tl.Lost()))
	e.count("trace.export_bytes", float64(buf.Len()))
	sum := sha256.Sum256(buf.Bytes())
	e.digest(cp, hex.EncodeToString(sum[:]))

	if lost := tl.Lost(); lost != 0 {
		return fmt.Errorf("%s: %d spans lost", pr, lost)
	}
	if !json.Valid(buf.Bytes()) {
		return fmt.Errorf("%s: Perfetto export is not valid JSON", pr)
	}
	if got, want := exportedEvents(buf.Bytes()), expectedEvents(spans, tl.Procs()); got != want {
		return fmt.Errorf("%s: Perfetto export holds %d span events, timeline holds %d", pr, got, want)
	}
	return nil
}

// exportedEvents counts the span-derived events of a Chrome trace: complete
// events, thread-scoped instants and flow starts. Names are JSON-escaped,
// so the quoted key/value pairs cannot occur inside one.
func exportedEvents(doc []byte) int {
	return bytes.Count(doc, []byte(`"ph":"X"`)) + bytes.Count(doc, []byte(`"s":"t"`)) + bytes.Count(doc, []byte(`"ph":"s"`))
}

// expectedEvents is how many events WriteChrome must emit for the merged
// spans: one per span, except edges without a flow or a known source track.
func expectedEvents(spans []trace.Span, procs []string) int {
	known := make(map[string]bool, len(procs))
	for _, p := range procs {
		known[p] = true
	}
	n := 0
	for _, s := range spans {
		if s.Kind == trace.EdgeEvent && (s.Flow == 0 || !known[s.Peer]) {
			continue
		}
		n++
	}
	return n
}

// --- replay-whatif -----------------------------------------------------------

// replayWhatIf loads each replay fixture once and replays it under every
// threshold override of the grid.
func replayWhatIf(e *repEnv) error {
	for _, fx := range e.fx.Replay {
		var a *session.Archive
		var err error
		e.sp.do("perfdb.load", func() { a, err = perfdb.LoadAny(filepath.Join(e.fxDir, fx.File)) })
		if err != nil {
			return fmt.Errorf("load %s: %w", fx.File, err)
		}
		e.count("perfdb.load_bytes", float64(fx.Bytes))
		texts := make([]string, len(e.sc.Grid))
		for g, o := range e.sc.Grid {
			e.op(func() error {
				var res *pperfmark.Result
				var err error
				e.sp.do("consultant.replay", func() { res, err = pperfmark.ReplayWith(a, o) })
				if err != nil {
					return fmt.Errorf("replay %s %+v: %w", fx.File, o, err)
				}
				var pc string
				e.sp.do("consultant.render", func() { pc = renderPC(res) })
				var v *pperfmark.Verdict
				e.sp.do("pperfmark.judge", func() { v = pperfmark.Judge(res) })
				e.countPC(res.PC)
				texts[g] = reportText(res, pc, v)
				e.res.ArtifactBytes += int64(len(texts[g]))
				if o == (pperfmark.ReplayOptions{}) && texts[g] != fx.Report {
					return fmt.Errorf("replay of %s at the recorded thresholds differs from the live report", fx.File)
				}
				return nil
			})
		}
		e.digest(texts...)
	}
	e.res.Ops = float64(len(e.fx.Replay) * len(e.sc.Grid))
	return nil
}

// --- store-cycle -------------------------------------------------------------

// storeCycle takes the fixture archives through every store verb: add,
// show, diff, trend, serve, push, re-push (dedupe), pull, rm, gc. The seed
// picks the order the archives are added in, and so their run IDs.
func storeCycle(e *repEnv) error {
	fixtures := append(append([]fixtureEntry(nil), e.fx.Store...), e.fx.Replay...)
	rand.New(rand.NewSource(int64(e.seed))).Shuffle(len(fixtures), func(i, j int) {
		fixtures[i], fixtures[j] = fixtures[j], fixtures[i]
	})
	stA, err := perfdb.Open(filepath.Join(e.tmp, "A"))
	if err != nil {
		return err
	}

	// add: what `pperf db add` does minus the verdict replay.
	idOf := map[string]string{} // fixture file → run ID in A
	for _, fx := range fixtures {
		e.op(func() error {
			var a *session.Archive
			var err error
			e.sp.do("perfdb.load", func() { a, err = perfdb.LoadAny(filepath.Join(e.fxDir, fx.File)) })
			if err != nil {
				return err
			}
			e.count("perfdb.load_bytes", float64(fx.Bytes))
			var m perfdb.RunMeta
			e.sp.do("perfdb.add", func() {
				m, err = stA.AddArchive(a, perfdb.AddMeta{Label: strings.TrimSuffix(fx.File, ".ppdb")})
			})
			if err != nil {
				return fmt.Errorf("add %s: %w", fx.File, err)
			}
			idOf[fx.File] = m.ID
			return nil
		})
	}
	runs := stA.Runs()
	if len(runs) != len(fixtures) {
		return fmt.Errorf("store holds %d runs after %d adds", len(runs), len(fixtures))
	}

	// show: open every run and render its JSON summary.
	views := map[string]*perfdb.RunView{}
	for _, m := range runs {
		e.op(func() error {
			var rv *perfdb.RunView
			var err error
			e.sp.do("perfdb.open_run", func() { rv, err = stA.OpenRun(m.ID) })
			if err != nil {
				return err
			}
			views[m.ID] = rv
			var doc []byte
			e.sp.do("perfdb.json", func() { doc, err = rv.SummaryJSON() })
			return e.checkJSON("show "+m.ID, doc, err)
		})
	}

	// diff and trend: the variants of each program, in variant order.
	groups := map[string][]fixtureEntry{}
	for _, fx := range e.fx.Store {
		groups[fx.Group()] = append(groups[fx.Group()], fx)
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		var vs []*perfdb.RunView
		for _, fx := range groups[g] {
			if rv := views[idOf[fx.File]]; rv != nil {
				vs = append(vs, rv)
			}
		}
		for i := 0; i+1 < len(vs); i++ {
			e.op(func() error {
				var rep *perfdb.DiffReport
				var err error
				var text string
				e.sp.do("perfdb.compare", func() {
					if rep, err = perfdb.Compare(vs[i], vs[i+1], perfdb.CompareOptions{}); err == nil {
						text = rep.Render()
					}
				})
				if err != nil {
					return fmt.Errorf("diff %s: %w", g, err)
				}
				e.digest(text)
				var doc []byte
				e.sp.do("perfdb.json", func() { doc, err = rep.RenderJSON() })
				return e.checkJSON("diff "+g, doc, err)
			})
		}
		if len(vs) >= 3 {
			e.op(func() error {
				var rep *perfdb.TrendReport
				var err error
				var text string
				e.sp.do("perfdb.trend", func() {
					if rep, err = perfdb.Trend(vs, perfdb.TrendOptions{}); err == nil {
						text = rep.Render()
					}
				})
				if err != nil {
					return fmt.Errorf("trend %s: %w", g, err)
				}
				e.digest(text)
				var doc []byte
				e.sp.do("perfdb.json", func() { doc, err = rep.RenderJSON() })
				return e.checkJSON("trend "+g, doc, err)
			})
		}
	}

	storeBytes, err := dirSize(stA.Dir())
	if err != nil {
		return err
	}
	e.res.ArtifactBytes += storeBytes

	// serve an empty store on loopback; push every run, push it again
	// (content-addressed dedupe), then pull everything into a third store.
	stB, err := perfdb.Open(filepath.Join(e.tmp, "B"))
	if err != nil {
		return err
	}
	srv, err := perfdb.Serve(stB, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cfg := perfdb.DefaultSyncConfig()
	cfg.Seed = e.seed
	remoteOf := map[string]string{} // run ID in A → run ID in B
	for _, m := range runs {
		e.op(func() error {
			var res *perfdb.PushResult
			var err error
			e.sp.do("perfdb.push", func() { res, err = perfdb.Push(stA, m.ID, srv.Addr(), cfg) })
			if err != nil {
				return err
			}
			if res.Deduped {
				return fmt.Errorf("push %s: peer claims to have it already", m.ID)
			}
			remoteOf[m.ID] = res.RemoteID
			e.res.ArtifactBytes += res.Bytes
			e.count("perfdb.sync_bytes", float64(res.Bytes))
			return sameFile(stA.RunPath(m.ID), stB.RunPath(res.RemoteID))
		})
	}
	for _, m := range runs {
		e.op(func() error {
			res, err := perfdb.Push(stA, m.ID, srv.Addr(), cfg)
			if err != nil {
				return err
			}
			if !res.Deduped {
				return fmt.Errorf("re-push %s: not deduplicated", m.ID)
			}
			return sameFile(stA.RunPath(m.ID), stB.RunPath(res.RemoteID))
		})
	}
	stC, err := perfdb.Open(filepath.Join(e.tmp, "C"))
	if err != nil {
		return err
	}
	e.op(func() error {
		var results []perfdb.PullResult
		var err error
		e.sp.do("perfdb.pull", func() { results, _, err = perfdb.Pull(stC, srv.Addr(), "", cfg) })
		if err != nil {
			return err
		}
		if len(results) != len(runs) {
			return fmt.Errorf("pull fetched %d runs, served store holds %d", len(results), len(runs))
		}
		for _, r := range results {
			e.count("perfdb.sync_bytes", float64(r.Bytes))
			if err := sameFile(stB.RunPath(r.RemoteID), stC.RunPath(r.LocalID)); err != nil {
				return err
			}
		}
		return nil
	})
	e.count("perfdb.sync_frames", float64(srv.Frames()))
	e.count("perfdb.sync_dup_frames", float64(srv.DuplicateFrames()))
	if err := srv.Close(); err != nil {
		return err
	}

	// rm + gc.
	for i := 0; i < e.sc.Removes && i < len(runs); i++ {
		id := runs[i].ID
		e.op(func() error {
			var err error
			e.sp.do("perfdb.remove", func() { err = stA.Remove(id) })
			return err
		})
	}
	e.op(func() error {
		var err error
		e.sp.do("perfdb.gc", func() { _, err = stA.GC() })
		return err
	})
	e.res.Ops = float64(e.res.Attempted)
	return nil
}

// checkJSON fails a call whose JSON document did not render or parse, and
// folds the document into the digest.
func (e *repEnv) checkJSON(what string, doc []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !json.Valid(doc) {
		return fmt.Errorf("%s: JSON does not parse", what)
	}
	e.digest(string(doc))
	return nil
}

// sameFile fails unless the two files are byte-identical.
func sameFile(a, b string) error {
	x, err := os.ReadFile(a)
	if err != nil {
		return err
	}
	y, err := os.ReadFile(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(x, y) {
		return errors.New(a + " and " + b + " differ")
	}
	return nil
}

// dirSize totals the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
