package pperfmark

// End-to-end record/replay equivalence: a replayed archive must reproduce
// the live session's entire analysis-plane output — Consultant report,
// judgement, query-plane state, Perfetto export — byte for byte.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pperf/internal/consultant"
	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// snapshot renders everything a consumer can observe about a Result
// through its DataSource: the full query-plane output plus the rendered
// reports. Live and replayed snapshots of the same session must be equal.
func snapshot(t *testing.T, res *Result) string {
	t.Helper()
	s, err := render(res)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// render is snapshot for callers without a test: a cell's run.
func render(res *Result) (string, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "program=%s impl=%s runtime=%v probes=%d coverage=%.4f\n",
		res.Program, res.Impl, res.RunTime, res.ProbeExecs, res.Coverage)
	for _, ev := range res.FaultLog {
		fmt.Fprintln(&b, "fault:", ev)
	}
	if res.PC != nil {
		b.WriteString(res.PC.Render())
		// The whole search tree, false and pruned nodes too, not only the
		// true path Render condenses.
		var walk func(n *consultant.Node, depth int)
		walk = func(n *consultant.Node, depth int) {
			fmt.Fprintf(&b, "%*s%s %s true=%v pruned=%v partial=%v/%v %.4f\n", 2*depth, "",
				n.Hypothesis, n.Focus, n.True, n.Pruned, n.Partial, n.GapPartial, n.Value)
			for _, ch := range n.Children {
				walk(ch, depth+1)
			}
		}
		for _, r := range res.PC.Roots() {
			walk(r, 0)
		}
	}
	ds := res.Source
	b.WriteString(ds.Hierarchy().Render())
	procs, lost := ds.Processes(), 0
	for _, p := range procs {
		if p.Lost {
			lost++
		}
	}
	fmt.Fprintf(&b, "procs=%d lost=%d degradation=%q\n",
		ds.ProcessCount(), lost, ds.DegradationSummary())
	for _, p := range procs {
		fmt.Fprintf(&b, "proc %s node=%s started=%v exited=%v end=%v lost=%v\n",
			p.Name, p.Node, p.Started, p.Exited, p.EndTime, p.Lost)
	}
	// Every verification series, including its full per-bin CSV.
	csv := ds.(interface {
		ExportCSV(s *datasource.Series) string
	})
	series := map[string]*datasource.Series{
		"BytesSent": res.BytesSent, "PutOps": res.PutOps, "GetOps": res.GetOps,
		"AccOps": res.AccOps, "RMABytes": res.RMABytes,
	}
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sr := series[n]
		if sr == nil {
			continue
		}
		fmt.Fprintf(&b, "series %s total=%.4f last=%v\n%s", n, sr.Total(), sr.LastSampleTime(), csv.ExportCSV(sr))
	}
	// The judged verdict.
	v := Judge(res)
	fmt.Fprintf(&b, "verdict pass=%v paper=%s details=%q problems=%q\n", v.Pass, v.PaperResult, v.Details, v.Problems)
	// The Perfetto export, counter tracks included.
	if res.Timeline != nil {
		var tr bytes.Buffer
		if err := trace.WriteChromeWith(&tr, res.Timeline, ds.CounterTracks()); err != nil {
			return "", err
		}
		b.Write(tr.Bytes())
	}
	return b.String(), nil
}

// cell is one recorded run: a program under run options, recorded through a
// streaming recorder, loaded back from disk and replayed. run fills in the
// live and the replayed result and the archive between them.
type cell struct {
	program string
	opt     RunOptions

	live, replayed *Result
	archive        *session.Archive
	err            error

	snapOnce sync.Once
	liveSnap string
}

// String names the cell by its spec.
func (c *cell) String() string {
	spec, err := NewSpec(c.program, c.opt)
	if err != nil {
		return err.Error()
	}
	return spec.String()
}

func (c *cell) run() error {
	dir, err := os.MkdirTemp("", "pperfmark-cell-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "s.ppdb")
	rec, err := perfdb.NewStreamRecorder(path)
	if err != nil {
		return err
	}
	opt := c.opt
	opt.Record = rec
	if c.live, err = Run(c.program, opt); err != nil {
		rec.Abort()
		return err
	}
	if err := rec.Close(); err != nil {
		return err
	}
	if c.archive, err = perfdb.LoadAny(path); err != nil {
		return err
	}
	if err := c.sameRecord(); err != nil {
		return err
	}
	if c.replayed, err = Replay(c.archive); err != nil {
		return err
	}
	file, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return c.keptIsMaterialised(file)
}

// keptIsMaterialised checks that the loaded archive, its sample batches kept
// packed, replays and writes exactly like the archive with every batch
// decoded: the same report, findings and series from a replay, and, written
// back, file's event chunks and trailer byte for byte — or, loaded from file
// cut halfway through what follows its header chunk, file's complete-chunk
// prefix, header chunk and all.
func (c *cell) keptIsMaterialised(file []byte) error {
	again, err := Replay(materialised(c.archive))
	if err != nil {
		return err
	}
	if c.replayed.Unsupported != nil { // a skipped run replays its refusal
		if again.Unsupported == nil || again.Unsupported.Error() != c.replayed.Unsupported.Error() {
			return fmt.Errorf("the loaded archive replays refusal %v, its batches decoded %v", c.replayed.Unsupported, again.Unsupported)
		}
	} else {
		// Both archives hold the same trace shards, so their exports are
		// left out: what differs is how the batches reach the series.
		kept, want := *c.replayed, *again
		kept.Timeline, want.Timeline = nil, nil
		k, err := render(&kept)
		if err != nil {
			return err
		}
		if w, err := render(&want); err != nil || k != w {
			return fmt.Errorf("the loaded archive replays differently from its batches decoded (err %v)", err)
		}
	}
	// The header chunk a recorder writes holds the run record as it stood at
	// launch; one rewritten from a loaded archive holds the final one the
	// trailer carries. Everything after it is the file's.
	var buf bytes.Buffer
	if err := perfdb.WriteArchive(&buf, c.archive); err != nil {
		return err
	}
	if !bytes.Equal(afterHeader(buf.Bytes()), afterHeader(file)) {
		return fmt.Errorf("the loaded archive writes %d bytes whose chunks differ from its %d-byte file's", buf.Len(), len(file))
	}
	rest := afterHeader(file)
	cut := file[:len(file)-len(rest)/2]
	a, err := perfdb.ReadArchive(bytes.NewReader(cut))
	if err != nil {
		return err
	}
	buf.Reset()
	if err := perfdb.WriteArchive(&buf, a); err != nil {
		return err
	}
	if want := completeChunks(cut); !a.Truncated || !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("the file cut to %d bytes loads (truncated %v) and writes %d bytes, not its %d-byte complete-chunk prefix", len(cut), a.Truncated, buf.Len(), len(want))
	}
	return nil
}

// materialised returns a with every kept batch decoded into Samples: the
// archive a read built before it kept its batches packed.
func materialised(a *session.Archive) *session.Archive {
	out := *a
	out.Events = slices.Clone(a.Events)
	for i := range out.Events {
		if ev := &out.Events[i]; ev.Batch != nil {
			samples, err := new(session.Unpacker).UnpackSamplesInto(nil, ev.Batch.Data)
			if err != nil {
				panic(err) // the load checked it
			}
			ev.Samples, ev.Batch = samples, nil
		}
	}
	return &out
}

// afterHeader returns an archive's bytes after its magic and header chunk.
func afterHeader(file []byte) []byte {
	end := len("PPDBA2")
	return file[end+9+int(binary.BigEndian.Uint32(file[end+1:end+5])):]
}

// completeChunks returns the magic and the whole chunk frames that file, an
// archive cut short, begins with.
func completeChunks(file []byte) []byte {
	end := len("PPDBA2")
	for end+9 <= len(file) {
		next := end + 9 + int(binary.BigEndian.Uint32(file[end+1:end+5]))
		if next > len(file) {
			break
		}
		end = next
	}
	return file[:end]
}

// runRecords maps each cell's spec line to the run record its recording
// holds, as testdata/run-records.golden lists them: the cell, a tab, then
// metaLine of the record.
var runRecords = sync.OnceValues(func() (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join("testdata", "run-records.golden"))
	records := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if cell, rec, ok := strings.Cut(line, "\t"); ok && !strings.HasPrefix(line, "#") {
			records[cell] = rec
		}
	}
	return records, err
})

// metaLine renders Meta pairs as one line, key=value in key order, as
// Spec.String renders a spec's.
func metaLine(meta map[string]string) string {
	pairs := make([]string, 0, len(meta))
	for _, k := range sortedKeys(meta) {
		pairs = append(pairs, k+"="+quoted(meta[k]))
	}
	return strings.Join(pairs, " ")
}

// sortedKeys returns meta's keys in order.
func sortedKeys(meta map[string]string) []string {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// metaSink keeps the Meta pairs stamped through it.
type metaSink map[string]string

func (metaSink) Record(session.Event)           {}
func (metaSink) SetHistogram(int, sim.Duration) {}
func (m metaSink) SetMeta(k, v string)          { m[k] = v }

// stamped is the Meta stampRecording writes at the end of a run.
func stamped(res *Result) map[string]string {
	meta := metaSink{}
	stampRecording(meta, res, true)
	return meta
}

// sameRecord is nil if c's recording holds the run record its golden line
// names, and that record decodes to a run that stamps it again.
func (c *cell) sameRecord() error {
	records, err := runRecords()
	if err != nil {
		return err
	}
	meta := c.archive.Header.Meta
	if want, ok := records[c.String()]; !ok || want != metaLine(meta) {
		return fmt.Errorf("run record %s, want %q (testdata/run-records.golden)", metaLine(meta), want)
	}
	res, err := decodeRun(meta)
	if err != nil {
		return err
	}
	if again := stamped(res); !maps.Equal(again, meta) {
		return fmt.Errorf("run record %s decodes and stamps to %s", metaLine(meta), metaLine(again))
	}
	return nil
}

// recorded runs c; see built.
func recorded(t *testing.T, c *cell) *cell {
	t.Helper()
	c.err = c.run()
	return built(t, c)
}

// built fails t, naming the cell, unless c built.
func built(t *testing.T, c *cell) *cell {
	t.Helper()
	if c.err != nil {
		t.Fatalf("%v: %v", c, c.err)
	}
	return c
}

// liveSnapshot is snapshot(t, c.live), rendered once for every test that
// reads the cell.
func (c *cell) liveSnapshot(t *testing.T) string {
	t.Helper()
	c.snapOnce.Do(func() { c.liveSnap = snapshot(t, c.live) })
	return c.liveSnap
}

// sameReplay fails t unless c's replay reproduces everything its live run
// showed.
func sameReplay(t *testing.T, c *cell) {
	t.Helper()
	diffSnapshots(t, c.String(), c.liveSnapshot(t), snapshot(t, c.replayed))
}

func diffSnapshots(t *testing.T, what, live, replayed string) {
	t.Helper()
	if live == replayed {
		return
	}
	// Locate the first divergence for a readable failure.
	i := 0
	for i < len(live) && i < len(replayed) && live[i] == replayed[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	end := func(s string) string {
		if i+120 < len(s) {
			return s[lo : i+120]
		}
		return s[lo:]
	}
	t.Errorf("%s: replay diverges from live at byte %d:\nlive    …%q\nreplay  …%q", what, i, end(live), end(replayed))
}

// shortSmallMessages scales the traced small-messages runs down to what
// tier-1 can afford. 15000 iterations is the floor: at 10000 the run ends
// before the Consultant confirms its sync finding. `make replay-golden`
// covers the full-size run.
var shortSmallMessages = Params{Iterations: 15000}

// healthySmallMessages is the run TestReplayReproducesHealthyRun replays and
// TestQueryPlaneDeterministic runs again: small-messages under LAM, seed 7,
// traced.
func healthySmallMessages() *cell {
	return &cell{program: "small-messages", opt: RunOptions{
		Impl: mpi.LAM, Seed: 7, Trace: &trace.Config{}, Params: shortSmallMessages,
	}}
}

var healthy = sync.OnceValue(func() *cell {
	c := healthySmallMessages()
	c.err = c.run()
	return c
})

func TestReplayReproducesHealthyRun(t *testing.T) {
	c := built(t, healthy())
	sameReplay(t, c)
	// The equivalence must not be vacuous: the shortened run still has to
	// drive the Consultant to its finding, and the replay has to keep it.
	replayed := c.replayed
	if !replayed.PC.TopLevelTrue(consultant.HypSync) || !replayed.PC.HasFinding(consultant.HypSync, "MPI_Send") {
		t.Errorf("replayed run lost the sync finding:\n%s", replayed.PC.Render())
	}
	if replayed.Session != nil {
		t.Error("replayed result claims a live session")
	}
	if replayed.Timeline == nil {
		t.Error("traced run replayed without a timeline")
	}
}

func TestReplayReproducesFaultRun(t *testing.T) {
	plan, err := faults.Parse("t=2s kill-node node1")
	if err != nil {
		t.Fatal(err)
	}
	c := recorded(t, &cell{program: "small-messages", opt: RunOptions{
		Impl: mpi.LAM, Seed: 7, Faults: plan, Params: shortSmallMessages,
	}})
	live, replayed := c.live, c.replayed
	liveSnap, repSnap := c.liveSnapshot(t), snapshot(t, replayed)
	diffSnapshots(t, c.String(), liveSnap, repSnap)
	// The degraded run's partial-data markers must survive replay.
	if !bytes.Contains([]byte(liveSnap), []byte("[partial data]")) {
		t.Error("fault run produced no [partial data] markers")
	}
	if live.Coverage >= 1 || replayed.Coverage != live.Coverage {
		t.Errorf("coverage live=%v replayed=%v", live.Coverage, replayed.Coverage)
	}
	if len(replayed.FaultLog) == 0 {
		t.Error("fault log lost in replay")
	}
}

func TestReplayUnsupportedRun(t *testing.T) {
	// spawncount cannot run under MPICH; the skip must replay too.
	c := recorded(t, &cell{program: "spawncount", opt: RunOptions{Impl: mpi.MPICH}})
	live, replayed := c.live, c.replayed
	if live.Unsupported == nil || replayed.Unsupported == nil {
		t.Fatalf("unsupported: live=%v replayed=%v", live.Unsupported, replayed.Unsupported)
	}
	if live.Unsupported.Error() != replayed.Unsupported.Error() {
		t.Errorf("messages differ: %q vs %q", live.Unsupported, replayed.Unsupported)
	}
}

// TestQueryPlaneDeterministic is the determinism audit's regression test:
// two identically-seeded live runs must produce identical full query
// output (hierarchy render, process lists, series CSVs, Consultant
// report and search tree, Perfetto export) — no map-iteration order may
// leak through. The first run is the shared healthy run.
func TestQueryPlaneDeterministic(t *testing.T) {
	again, err := Run("small-messages", healthySmallMessages().opt)
	if err != nil {
		t.Fatal(err)
	}
	diffSnapshots(t, "determinism", built(t, healthy()).liveSnapshot(t), snapshot(t, again))
}

// BenchmarkRunRecorderCold measures a full judged run with no recorder
// attached — the baseline showing the recording hooks cost nothing when
// cold (every hook is one nil test). Compare with BenchmarkRunRecording.
func BenchmarkRunRecorderCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run("small-messages", RunOptions{Impl: mpi.LAM, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRecording(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		rec, err := perfdb.NewStreamRecorder(filepath.Join(b.TempDir(), "s.ppdb"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run("small-messages", RunOptions{Impl: mpi.LAM, Seed: 7, Record: rec}); err != nil {
			b.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		events += rec.EventCount()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// fullRun sets every field of a run's spec and every recorded field of its
// result, each to a value unlike its neighbours', with a fault log that holds
// a line twice.
func fullRun() *Result {
	plan, err := faults.Parse("seed=3; detect=1s; hb=100ms; restarts=2; t=1s kill-node node1; t=1.5s drop-transport node0 n=3 chan=bulk")
	if err != nil {
		panic(err)
	}
	return &Result{
		Spec: Spec{Program: "small-messages", Impl: mpi.MPICH2,
			Params: Params{Iterations: 1, MessageSize: 2, Messages: 3, TimeToWaste: 4, Procs: 5,
				WasteUnit: 6 * sim.Millisecond, Windows: 7, Children: 8},
			Seed: math.MaxUint64 - 6, Spawn: daemon.SpawnAttach, DisablePC: true, Traced: true, Faults: plan,
			PCConfig: consultant.Config{SyncThreshold: 0.2, IOThreshold: 0.15, CPUThreshold: math.SmallestNonzeroFloat64,
				EvalInterval: 250 * sim.Millisecond, PruneEvals: 10}},
		RunTime: sim.Time(4875 * sim.Millisecond), ProbeExecs: 1 << 40,
		FaultLog:    []string{"t=1s kill-node node1", "t=1s kill-node node1", "t=2s crash-daemon node0"},
		Unsupported: errors.New("dynamic process creation is not supported"),
	}
}

// notRecorded names the fields of Result a run record leaves out: the live
// session and what a replay rebuilds from the event stream.
var notRecorded = map[string]bool{
	"Result.Session": true, "Result.Source": true, "Result.PC": true, "Result.BytesSent": true, "Result.PutOps": true,
	"Result.GetOps": true, "Result.AccOps": true, "Result.RMABytes": true, "Result.Coverage": true, "Result.Timeline": true,
}

// Every field of the spec and every recorded field of the result survives
// its record, and so does a run of zero values but its program and
// Consultant configuration; a record decodes to a run that stamps it again. fullRun covers each field (a new one neither
// recorded nor listed in notRecorded would fail here).
func TestRunInfoRoundTrip(t *testing.T) {
	res := fullRun()
	for _, v := range []reflect.Value{reflect.ValueOf(*res), reflect.ValueOf(res.Spec), reflect.ValueOf(res.Params), reflect.ValueOf(res.PCConfig)} {
		for i := range v.NumField() {
			name := v.Type().Name() + "." + v.Type().Field(i).Name
			if v.Field(i).IsZero() && !notRecorded[name] {
				t.Fatalf("fullRun leaves %s zero", name)
			}
		}
	}
	for _, run := range []*Result{res, {Spec: Spec{Program: "allcount", PCConfig: ScaledPCConfig()}}} {
		meta := stamped(run)
		got, err := decodeRun(meta)
		if err != nil || !reflect.DeepEqual(got, run) {
			t.Errorf("run description round trip:\n got %#v (%v)\nwant %#v", got, err, run)
			continue
		}
		if again := stamped(got); !maps.Equal(again, meta) {
			t.Errorf("run record %s decodes and stamps to %s", metaLine(meta), metaLine(again))
		}
	}
}

// A corrupt run description fails the replay with an error naming it, never
// a panic, a replay of something else or a replay without end: a value that
// does not parse, a record no live run writes, and one that promises more
// Consultant evaluations than its archive holds barriers, grafted onto a
// real recording.
func TestCorruptRunDescription(t *testing.T) {
	res := fullRun()
	res.DisablePC = false
	record := stamped(res)
	with := func(k, v string) map[string]string {
		meta := maps.Clone(record)
		meta[k] = v
		return meta
	}
	without := func(k string) map[string]string {
		meta := maps.Clone(record)
		delete(meta, k)
		return meta
	}
	empty := &session.Archive{Header: session.Header{Version: session.Version, NumBins: 100, BinWidth: 50 * sim.Millisecond}}
	real := built(t, healthy()).archive
	graft := func(k string, v int64) *session.Archive {
		a := *real
		a.Header.Meta = maps.Clone(real.Header.Meta)
		a.Header.Meta[k] = strconv.FormatInt(v, 10)
		return &a
	}
	_, barriers := real.Replayable()
	interval := sim.Time(ScaledPCConfig().EvalInterval)
	cases := map[string]*session.Archive{
		"1 ns interval":                   graft("pc-eval", 1),
		"run time 10⁶ times its barriers": graft("runtime", int64(sim.Time(barriers)*interval*1e6)),
	}
	for name, meta := range map[string]map[string]string{
		"garbage":                    with("pc-eval", "\xff"),
		"cut short":                  without("pc-eval"),
		"trailing byte":              with("pc-eval", "250000000\x00"),
		"unparsable number":          with("iterations", "12x"),
		"number past int64":          with("probe-execs", "9223372036854775808"),
		"fractional count":           with("pc-prune", "2.5"),
		"unparsable threshold":       with("pc-sync", "0,5"),
		"negative seed":              with("seed", "-1"),
		"zero eval interval":         with("pc-eval", "0"),
		"unknown personality":        with("impl", "Open MPI"),
		"personality past Reference": with("impl", (mpi.Reference + 1).String()),
		"negative personality":       with("impl", "-1"),
		"no personality":             without("impl"),
		"negative parameter":         with("children", "-1"),
		"negative waste unit":        with("waste-unit", "-1"),
		"negative prune count":       with("pc-prune", "-1"),
		"negative probe count":       with("probe-execs", "-5"),
		"negative run time":          with("runtime", "-1"),
		"zero threshold":             with("pc-sync", "0"),
		"threshold above 1":          with("pc-io", "1.5"),
		"NaN threshold":              with("pc-cpu", "NaN"),
		"infinite threshold":         with("pc-cpu", "+Inf"),
		"unparsable fault plan":      with("faults", "t=1s explode node1"),
		"unknown spawn method":       with("spawn", "fork"),
	} {
		a := *empty
		a.Header.Meta = meta
		cases[name] = &a
	}
	// A replay that trusts such a record runs for minutes or for ever; the
	// deadline makes that a failure, and the buffered channel lets the
	// replay's goroutine finish whenever it does.
	for name, a := range cases {
		done := make(chan error, 1)
		go func() {
			_, err := ReplayWith(a, ReplayOptions{})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "pperfmark: corrupt run description") {
				t.Errorf("%s: err = %v, want a corrupt run description", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: still replaying after 10 s, want a corrupt run description", name)
		}
	}
}
