package perfdb_test

// Integration against the real harness: re-encoded archives must replay
// byte-identically to the recording they came from, the streaming recorder
// must capture exactly the state the live run held in memory, and a store
// of two recorded runs must produce a deterministic ranked regression
// report.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pperf/internal/consultant"
	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/session"
)

// fingerprint renders everything a replay consumer observes about a
// Result, so two replays can be compared byte for byte.
func fingerprint(t *testing.T, res *pperfmark.Result) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "program=%s impl=%s runtime=%v probes=%d coverage=%.4f\n",
		res.Program, res.Impl, res.RunTime, res.ProbeExecs, res.Coverage)
	for _, ev := range res.FaultLog {
		fmt.Fprintln(&b, "fault:", ev)
	}
	if res.PC != nil {
		b.WriteString(res.PC.Render())
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
		b.WriteString(res.PC.Export().String())
		b.WriteByte('\n')
	}
	b.WriteString(res.Source.Hierarchy().Render())
	csv := res.Source.(interface {
		ExportCSV(s *datasource.Series) string
	})
	if res.BytesSent != nil {
		b.WriteString(csv.ExportCSV(res.BytesSent))
	}
	return b.String()
}

// compact round-trips an archive through the chunked encoder.
func compact(t *testing.T, a *session.Archive) *session.Archive {
	t.Helper()
	var buf bytes.Buffer
	if err := perfdb.WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := perfdb.ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated {
		t.Fatal("compacted archive loaded as truncated")
	}
	return got
}

func replayFingerprint(t *testing.T, a *session.Archive) string {
	t.Helper()
	res, err := pperfmark.Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, res)
}

// TestCompactionReplayIdentical is the acceptance bar: an archive
// re-encoded through WriteArchive (the store's ingest path) replays
// byte-for-byte identically to the recording it was loaded from — healthy
// run and fault run both.
func TestCompactionReplayIdentical(t *testing.T) {
	same := func(t *testing.T, a *session.Archive) {
		orig := replayFingerprint(t, a)
		comp := replayFingerprint(t, compact(t, a))
		if orig != comp {
			i := 0
			for i < len(orig) && i < len(comp) && orig[i] == comp[i] {
				i++
			}
			t.Errorf("compacted replay diverges at byte %d: %q vs %q",
				i, tail(orig, i), tail(comp, i))
		}
	}
	t.Run("healthy", func(t *testing.T) {
		c := built(t, smallMessages())
		same(t, c.archive(t, 1))
	})
	t.Run("faulted", func(t *testing.T) {
		plan, err := faults.Parse("t=2s kill-node node1")
		if err != nil {
			t.Fatal(err)
		}
		c := recorded(t, &cell{program: "small-messages", chunks: []int{0}, opt: pperfmark.RunOptions{
			Impl: mpi.LAM, Seed: 7, Faults: plan, Params: pperfmark.Params{Iterations: 15000},
		}})
		if len(c.live.FaultLog) == 0 || c.live.Coverage >= 1 {
			t.Fatalf("%v: the fault never fired (fault log %q, coverage %v)", c, c.live.FaultLog, c.live.Coverage)
		}
		same(t, c.archive(t, 0))
	})
}

func tail(s string, i int) string {
	lo, hi := i-60, i+60
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestStreamRecorderMatchesInMemory: a run streamed to disk in small
// chunks must replay to the fingerprint of the state the live run held in
// memory, whatever the chunk granularity.
func TestStreamRecorderMatchesInMemory(t *testing.T) {
	c := built(t, smallMessages())
	streamed, whole := c.archive(t, 0), c.archive(t, 1)
	if streamed.Header.NumEvents != whole.Header.NumEvents {
		t.Errorf("32-event chunks hold %d events, default chunks %d", streamed.Header.NumEvents, whole.Header.NumEvents)
	}
	if a, b := fingerprint(t, c.live), replayFingerprint(t, streamed); a != b {
		t.Error("streamed recording replays differently from the live run's in-memory state")
	}
}

// Writers share the chunk buffers the last one left, as scans share their
// scratch. Replaying a recorded run's events, a recorder opened while another
// holds the spare set grows its own; one opened after both closed takes a set
// and its writes allocate a tenth of that at most. Every archive, in a store
// or standalone, is byte for byte the one a standalone recorder writes. Two
// recorders open at once each write that archive too (make race runs this
// under -race).
func TestStoreWritersShareChunkBuffers(t *testing.T) {
	events := built(t, smallMessages()).archive(t, 1).Events
	record := func(rec *perfdb.StreamRecorder) {
		for _, ev := range events {
			rec.Record(ev)
		}
	}
	alone := filepath.Join(t.TempDir(), "alone.ppdb")
	rec, err := perfdb.NewStreamRecorder(alone)
	if err != nil {
		t.Fatal(err)
	}
	record(rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(alone)
	if err != nil {
		t.Fatal(err)
	}
	st, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commit := func(rec *perfdb.StreamRecorder) error {
		m, _, err := st.Commit(rec, perfdb.AddMeta{})
		if err != nil {
			return err
		}
		got, err := os.ReadFile(st.RunPath(m.ID))
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%s differs from the standalone recorder's archive", m.ID)
		}
		return err
	}
	recordMeasured := func(rec *perfdb.StreamRecorder) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		record(rec)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var recs [2]*perfdb.StreamRecorder
	for i := range recs {
		if recs[i], err = st.NewRecorder(); err != nil {
			t.Fatal(err)
		}
	}
	record(recs[0])
	grown := recordMeasured(recs[1]) // recs[0] holds the spare set
	for _, rec := range recs {
		if err := commit(rec); err != nil {
			t.Fatal(err)
		}
	}
	again := filepath.Join(t.TempDir(), "again.ppdb")
	if rec, err = perfdb.NewStreamRecorder(again); err != nil {
		t.Fatal(err)
	}
	if taken := recordMeasured(rec); taken > grown/10 {
		t.Errorf("a recorder taking the spare set allocated %d bytes, one growing its own %d: want a tenth at most", taken, grown)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(again); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a second standalone recording differs from the first (err %v)", err)
	}

	for i := range recs {
		if recs[i], err = st.NewRecorder(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(recs))
	for i, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			record(rec)
			errs[i] = commit(rec)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent recorder %d: %v", i, err)
		}
	}
}

// TestStoreDiffEndToEnd records a healthy and a degraded run of the same
// program into a store and checks the cross-run diagnosis: significant
// per-focus regressions, ranked, byte-deterministic across rebuilds.
func TestStoreDiffEndToEnd(t *testing.T) {
	st, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runInto := func(label, faultSpec string) perfdb.RunMeta {
		t.Helper()
		opt := pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7}
		if faultSpec != "" {
			plan, err := faults.Parse(faultSpec)
			if err != nil {
				t.Fatal(err)
			}
			opt.Faults = plan
		}
		rec, err := st.NewRecorder()
		if err != nil {
			t.Fatal(err)
		}
		opt.Record = rec
		res, err := pperfmark.Run("big-message", opt)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := st.Commit(rec, perfdb.AddMeta{Label: label, Verdict: res.PC.Export().String()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	healthy := runInto("healthy", "")
	degraded := runInto("degraded", "t=500ms degrade-link * bw=0.1")
	if healthy.Faults != "" || degraded.Faults == "" {
		t.Errorf("fault plans in index: healthy=%q degraded=%q", healthy.Faults, degraded.Faults)
	}
	if healthy.Verdict == "" || degraded.Verdict == "" {
		t.Error("consultant verdicts missing from the index")
	}

	diffOnce := func() string {
		base, err := st.OpenRun("healthy")
		if err != nil {
			t.Fatal(err)
		}
		neu, err := st.OpenRun("degraded")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := perfdb.Compare(base, neu, perfdb.CompareOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Regressions()) == 0 {
			t.Fatal("bandwidth-degraded run produced no significant regressions")
		}
		// Significant deltas rank above unchanged ones.
		sawUnchanged := false
		for _, d := range rep.Deltas {
			switch d.Verdict {
			case perfdb.VerdictRegression, perfdb.VerdictImprovement:
				if sawUnchanged {
					t.Error("significant delta ranked below an unchanged one")
				}
			case perfdb.VerdictUnchanged:
				sawUnchanged = true
			}
		}
		return rep.Render()
	}
	r1, r2 := diffOnce(), diffOnce()
	if r1 != r2 {
		t.Error("diff report not byte-deterministic across rebuilds")
	}
}

// TestStreamingOpenRunMatchesReferenceOnSuite: every suite program under
// every personality that runs it, one traced run and one self-healing fault
// run, each recorded into a store and then opened both ways — by the
// streaming fold and by the materialise-then-replay path it replaced (kept in
// reference_test.go). Views, and the diffs and trends over them, must agree.
func TestStreamingOpenRunMatchesReferenceOnSuite(t *testing.T) {
	st, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	open := func(c *cell) (streamed, reference *perfdb.RunView) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "run.ppdb")
		if err := os.WriteFile(path, c.files[0], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := st.AddFile(path, perfdb.AddMeta{})
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		return perfdb.OpenBothWays(t, st.RunPath(m.ID), m)
	}
	streamed, reference := map[string][]*perfdb.RunView{}, map[string][]*perfdb.RunView{}
	for _, c := range suite() {
		switch {
		case c.err != nil:
			t.Errorf("%v: %v", c, c.err)
		case c.unsupported:
		case c.opt.Trace != nil:
			if s, _ := open(c); s.Timeline() == nil || len(s.Timeline().Spans()) == 0 {
				t.Errorf("%v: the traced recording opened without spans", c)
			}
		case c.opt.Faults != nil:
			if s, _ := open(c); len(s.FaultLog()) == 0 || len(s.UnmeasuredGaps()) == 0 {
				t.Errorf("%v: the self-healing recording opened with fault log %q and gaps %v", c, s.FaultLog(), s.UnmeasuredGaps())
			}
		default:
			s, r := open(c)
			if len(s.Pairs()) < 3 {
				t.Errorf("%v: the recording holds %d series, too few to compare anything", c, len(s.Pairs()))
			}
			streamed[c.program], reference[c.program] = append(streamed[c.program], s), append(reference[c.program], r)
		}
	}
	for _, prog := range pperfmark.Names() {
		if len(streamed[prog]) == 0 {
			t.Errorf("%s ran under no personality", prog)
		}
		perfdb.SameAnalytics(t, streamed[prog], reference[prog])
	}
}

// Verifying a recorded run costs a few dozen objects, however long the run:
// the header and the trailer decode through the scan's own string table, and
// nothing builds a decoder.
func TestVerifyObjectBudget(t *testing.T) {
	data := built(t, smallMessages()).files[1]
	verify := func() {
		if err := perfdb.VerifyArchive(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	verify() // grows the spare scratch
	n := testing.AllocsPerRun(10, verify)
	if n > 80 {
		t.Errorf("verifying a %d-byte small-messages recording allocates %v objects; want at most 80", len(data), n)
	}
}

// LoadAny allocates its event list once, at the count the frame headers
// declare: a recording chunked fine and coarse, a copy of it cut mid-frame
// (the count stops at the cut frame, as the scan does) and the format golden
// each hold exactly the list they keep. A reader that cannot seek collects
// the same archive, growing the list as events arrive.
func TestLoadAnyAllocatesItsEventListOnce(t *testing.T) {
	c := built(t, smallMessages())
	golden, err := os.ReadFile("testdata/format_v2.ppdb")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, data := range [][]byte{c.files[0], c.files[1], c.files[0][:len(c.files[0])*2/3], golden} {
		path := filepath.Join(dir, fmt.Sprintf("%d.ppdb", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := perfdb.LoadAny(path)
		if err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		if cap(a.Events) != len(a.Events) || len(a.Events) == 0 || a.Truncated != (i == 2) {
			t.Errorf("file %d: LoadAny kept %d events in a list of %d (truncated %v)", i, len(a.Events), cap(a.Events), a.Truncated)
		}
		plain, err := perfdb.ReadArchive(struct{ io.Reader }{bytes.NewReader(data)})
		if err != nil || !reflect.DeepEqual(plain, a) {
			t.Errorf("file %d: a reader that cannot seek read a different archive (err %v)", i, err)
		}
	}
}

// randomBarrier is random-barrier under LAM, seed 7, recorded in default
// chunks: one of the replay-whatif workload's fixtures, which the load and
// replay budgets below are measured on.
var randomBarrier = sync.OnceValue(func() *cell {
	c := &cell{program: "random-barrier", chunks: []int{0}, opt: pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7}}
	c.err = c.run()
	return c
})

// Loading a recorded random-barrier run and replaying it once allocates what
// the replay keeps: the event list at its declared size, each histogram at
// the recorded end on its first sample. Either sizing lost costs more than
// the margin.
func TestReplayByteBudget(t *testing.T) {
	c := built(t, randomBarrier())
	path := filepath.Join(t.TempDir(), "random-barrier.ppdb")
	if err := os.WriteFile(path, c.files[0], 0o644); err != nil {
		t.Fatal(err)
	}
	replay := func() {
		a, err := perfdb.LoadAny(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pperfmark.ReplayWith(a, pperfmark.ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	replay() // grows the spare scratch and compiles what a first session compiles
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	// 5.44 MB measured on linux/amd64 (12.30 MB before the loaded batches
	// stayed packed, 16.52 MB before the two sizings).
	const budget = 5_800_000
	if n := after.TotalAlloc - before.TotalAlloc; n > budget {
		t.Errorf("loading and replaying a %d-byte random-barrier recording allocates %d bytes; want at most %d", len(c.files[0]), n, budget)
	}
}

// LoadAny keeps a recording's sample batches packed, each chunk's in three
// slabs — their bytes, their PackedBatch records, their dictionaries — so a
// load allocates per chunk, not per batch, as decoding each batch into a
// slice of its own did.
func TestLoadAnyAllocatesPerChunkNotPerBatch(t *testing.T) {
	c := built(t, randomBarrier())
	path := filepath.Join(t.TempDir(), "random-barrier.ppdb")
	if err := os.WriteFile(path, c.files[0], 0o644); err != nil {
		t.Fatal(err)
	}
	var a *session.Archive
	var err error
	allocs := testing.AllocsPerRun(3, func() { a, err = perfdb.LoadAny(path) })
	if err != nil {
		t.Fatal(err)
	}
	batches, chunks := 0, 0
	for i := range a.Events {
		if a.Events[i].Kind == session.EvSamples {
			batches++
		}
	}
	for data := c.files[0][len("PPDBA2"):]; len(data) > 0; data = data[9+binary.BigEndian.Uint32(data[1:5]):] {
		if data[0] == 'E' {
			chunks++
		}
	}
	if batches < 16*chunks {
		t.Fatalf("%d sample batches in %d chunks: too few per chunk to tell the two apart", batches, chunks)
	}
	if limit := 4*chunks + 64; allocs > float64(limit) {
		t.Errorf("LoadAny of %d batches in %d chunks makes %.0f allocations; want at most %d", batches, chunks, allocs, limit)
	}
}
