package perfdb

// The streaming OpenRun against the path it replaced. Until PR 23 a stored
// run was materialised — ReadArchive into a session.Archive{Events}, an
// enable index over the whole stream, a ReplaySource drained into the View.
// That path is kept here as the reference, and every comparison below drives
// both over the same file.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/metric"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// referenceRunView is NewRunView as it stood at 7fdb282.
func referenceRunView(a *session.Archive, m RunMeta) *RunView {
	rs := session.NewReplaySource(a)
	rv := &RunView{View: rs.View, Meta: m}
	if log := a.Header.Meta["fault-log"]; log != "" {
		rv.faultLog = strings.Split(log, "\n")
	}
	for i := range a.Events {
		ev := &a.Events[i]
		if ev.Kind != session.EvEnable || ev.Err != "" {
			continue
		}
		p := datasource.Pair{Metric: ev.Metric, Focus: ev.Focus}
		if rv.SeriesFor(p) != nil {
			continue
		}
		if _, err := rs.EnableMetric(p.Metric, p.Focus); err == nil {
			rv.pairs = append(rv.pairs, p)
		}
	}
	sort.Slice(rv.pairs, func(i, j int) bool {
		return datasource.ComparePairs(rv.pairs[i], rv.pairs[j]) < 0
	})
	rs.Drain()
	return rv
}

// viewFingerprint renders everything a RunView answers: the JSON summary,
// pairs, fault log, coverage and gap accounting, the hierarchy, every series
// bin by bin (whole and per process), and the timeline's span and loss counts.
func viewFingerprint(t testing.TB, rv *RunView) string {
	t.Helper()
	var b strings.Builder
	doc, err := rv.SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	b.Write(doc)
	fmt.Fprintf(&b, "bins=%d width=%v faultlog=%q\n", rv.NumBins, rv.BinWidth, rv.FaultLog())
	procs, lost := rv.Processes(), 0
	for _, p := range procs {
		if p.Lost {
			lost++
		}
	}
	fmt.Fprintf(&b, "coverage=%.6f procs=%d lost=%d degradation=%q gaps=%v overlap=%v\n",
		rv.Coverage(), rv.ProcessCount(), lost,
		rv.DegradationSummary(), rv.UnmeasuredGaps(), rv.GapOverlaps(0, sim.Time(1<<62)))
	for _, p := range procs {
		fmt.Fprintf(&b, "proc %+v\n", *p)
	}
	fmt.Fprintf(&b, "healthy daemons %v\n", rv.SilentDaemons(sim.Time(1<<62), 0))
	b.WriteString(rv.Hierarchy().Render())
	for _, p := range rv.Pairs() {
		s := rv.SeriesFor(p)
		fmt.Fprintf(&b, "pair %s @ %s last=%v all=%s", p.Metric, p.Focus, s.LastSampleTime(), histogramBits(s.Histogram()))
		for _, proc := range s.Procs() {
			fmt.Fprintf(&b, " %s=%s", proc, histogramBits(s.ProcHistogram(proc)))
		}
		b.WriteByte('\n')
	}
	if tl := rv.Timeline(); tl == nil {
		b.WriteString("no timeline\n")
	} else {
		fmt.Fprintf(&b, "timeline %+v spans=%d lost=%d procs=%v\n", tl.Stats(), len(tl.Spans()), tl.Lost(), tl.Procs())
	}
	return b.String()
}

// histogramBits digests a histogram exactly: its geometry and the bits of
// every bin (formatting the bins as text was most of this file's run time).
func histogramBits(h *metric.Histogram) string {
	d := fnv.New64a()
	var word [8]byte
	for _, v := range h.Values() {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		d.Write(word[:])
	}
	return fmt.Sprintf("%v/%d/%016x", h.BinWidth(), h.NumFilled(), d.Sum64())
}

// OpenBothWays opens the archive at path through the streaming fold and
// through the reference and fails the test where they differ. The external
// suite test (integration_test.go) reaches it by this name.
func OpenBothWays(t testing.TB, path string, m RunMeta) (streamed, reference *RunView) {
	t.Helper()
	a, err := LoadAny(path)
	if err != nil {
		t.Fatal(err)
	}
	reference = referenceRunView(a, m)
	if streamed, err = openRun(path, m); err != nil {
		t.Fatal(err)
	}
	want := viewFingerprint(t, reference)
	if got := viewFingerprint(t, streamed); got != want {
		t.Fatalf("%s: streaming OpenRun differs from the materialised reference at byte %d:\n got …%s\nwant …%s",
			filepath.Base(path), diffAt(got, want), around(got, diffAt(got, want)), around(want, diffAt(got, want)))
	}
	if adapted := viewFingerprint(t, NewRunView(a, m)); adapted != want {
		t.Fatalf("%s: NewRunView over the loaded archive differs from the reference", filepath.Base(path))
	}
	return streamed, reference
}

func diffAt(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func around(s string, i int) string {
	return s[max(0, i-80):min(len(s), i+80)]
}

// SameAnalytics fails the test unless Compare over consecutive views and
// Trend over all of them render the same from streamed as from reference
// views, as text and as JSON.
func SameAnalytics(t testing.TB, streamed, reference []*RunView) {
	t.Helper()
	render := func(vs []*RunView) string {
		var b strings.Builder
		for i := 0; i+1 < len(vs); i++ {
			for _, o := range []CompareOptions{{}, {SinceFault: true}, {Window: Window{From: sim.Time(200 * sim.Millisecond)}}} {
				rep, err := Compare(vs[i], vs[i+1], o)
				if err != nil {
					fmt.Fprintf(&b, "compare: %v\n", err)
					continue
				}
				doc, _ := rep.RenderJSON()
				b.WriteString(rep.Render())
				b.Write(doc)
			}
		}
		if rep, err := Trend(vs, TrendOptions{Alpha: 0.1}); err != nil {
			fmt.Fprintf(&b, "trend: %v\n", err)
		} else {
			doc, _ := rep.RenderJSON()
			b.WriteString(rep.Render())
			b.Write(doc)
		}
		return b.String()
	}
	if got, want := render(streamed), render(reference); got != want {
		t.Fatalf("Compare/Trend over streamed views differ from the reference at byte %d: …%s… vs …%s…",
			diffAt(got, want), around(got, diffAt(got, want)), around(want, diffAt(got, want)))
	}
}

// foldArchive builds a stream that exercises what the fold decides: pairs
// enabled late, refused, refused then granted, granted then refused, enabled
// twice (a disable leaves no event: the samples stop and start again),
// samples of pairs never enabled, and every view-bearing kind between
// barriers. As in every recording the tool makes, no pair is sampled ahead of
// its enable: the front end records the outcome before a daemon's first
// sample of the pair can reach it.
func foldArchive(rng *rand.Rand, nEvents int) *session.Archive {
	a := &session.Archive{Header: session.Header{
		Version: session.Version, NumBins: 40, BinWidth: 50 * sim.Millisecond,
		Meta: map[string]string{"program": "synthetic", "fault-log": "t=1s crash-daemon node1\nsupervisor: respawned"},
	}}
	whole := resource.WholeProgram()
	fn := resource.Focus{CodePath: "/Code/a.c/f", MachinePath: "/Machine", SyncPath: "/SyncObject"}
	pairs := []datasource.Pair{{Metric: "sync_wait", Focus: whole}, {Metric: "io_wait", Focus: whole}, {Metric: "msg_bytes_sent", Focus: fn},
		{Metric: "ghost", Focus: whole}, {Metric: "cpu", Focus: whole}, {Metric: "cpu", Focus: fn}}
	sampled := 4 // pairs[:sampled] turn up in sample batches
	enable := func(p datasource.Pair, errMsg string) {
		a.Events = append(a.Events, session.Event{Kind: session.EvEnable, Metric: p.Metric, Focus: p.Focus, Err: errMsg})
	}
	enable(pairs[0], "")
	enable(pairs[1], "daemon refused") // refused, never granted
	at := sim.Time(0)
	for len(a.Events) < nEvents {
		switch n := len(a.Events); { // sampled doubles as the stage reached
		case sampled == 4 && n >= nEvents/5:
			enable(pairs[4], "") // enabled late
			enable(pairs[2], "node1 is down")
			sampled = 5
		case sampled == 5 && n >= 2*nEvents/5:
			enable(pairs[2], "") // refused first: the first outcome stands
			enable(pairs[0], "") // enabled again after a disable
			enable(pairs[5], "")
			sampled = 6
		case sampled == 6 && n >= 3*nEvents/5:
			enable(pairs[5], "daemon refused")         // granted first: stays
			enable(datasource.Pair{Metric: "cpu"}, "") // pairs[4] again, spelled with the zero focus
			sampled = 7
		}
		switch rng.Intn(9) {
		case 0, 1, 2, 3:
			batch := make([]datasource.Sample, 1+rng.Intn(12))
			for i := range batch {
				at += sim.Time(rng.Intn(20)) * sim.Time(sim.Millisecond)
				p := pairs[rng.Intn(min(sampled, len(pairs)))]
				batch[i] = datasource.Sample{Metric: p.Metric, Focus: p.Focus, Proc: fmt.Sprintf("app{%d}", rng.Intn(3)),
					Time: at, Delta: float64(rng.Intn(1000)), Value: float64(rng.Intn(1e6))}
			}
			a.Events = append(a.Events, session.Event{Kind: session.EvSamples, Samples: batch})
		case 4:
			a.Events = append(a.Events, session.Event{Kind: session.EvUpdate, Update: datasource.Update{
				Kind: datasource.UpAddResource, Path: fmt.Sprintf("/Machine/node%d/app{%d}", rng.Intn(2), rng.Intn(3)),
				Time: at, Daemon: fmt.Sprintf("paradynd@node%d", rng.Intn(2)),
			}})
		case 5:
			a.Events = append(a.Events, session.Event{Kind: session.EvBarrier})
		case 6:
			a.Events = append(a.Events, session.Event{Kind: session.EvShard, Shard: randomShard(rng, rng.Intn(20))})
		case 7:
			a.Events = append(a.Events,
				session.Event{Kind: session.EvStale, Daemon: "paradynd@node1", Time: at},
				session.Event{Kind: session.EvUndelivered, Proc: "app{1}", N: int64(rng.Intn(9))})
		default:
			a.Events = append(a.Events, session.Event{Kind: session.EvGap, Gap: datasource.Gap{Node: "node1", From: at, To: at + 5}})
		}
	}
	a.Header.NumEvents = len(a.Events)
	return a
}

// writeChunked encodes a with the given chunk granularity into a file.
func writeChunked(t testing.TB, a *session.Archive, flushEvents int) (path string, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	cw, err := newChunkWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cw.perChunk = flushEvents
	if err := cw.writeHeaderChunk(provisionalHeader(a.Header)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range a.Events {
		if err := cw.add(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.close(a.Header); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "run.ppdb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func TestStreamingFoldMatchesReferenceOnDecisions(t *testing.T) {
	var streamed, reference []*RunView
	for seed := int64(1); seed <= 4; seed++ {
		a := foldArchive(rand.New(rand.NewSource(seed)), 300)
		path, _ := writeChunked(t, a, 32)
		s, r := OpenBothWays(t, path, RunMeta{ID: fmt.Sprintf("r%04d", seed), Program: "synthetic"})
		streamed, reference = append(streamed, s), append(reference, r)
		if seed > 1 {
			continue
		}
		// What the decisions came to, stated once: refused pairs are out
		// (also the one granted later — its first outcome stands), the late,
		// the re-enabled and the respelled pair are in once each.
		var got []string
		for _, p := range s.Pairs() {
			got = append(got, p.Metric+"@"+p.Focus.CodePath)
		}
		if want := "cpu@/Code cpu@/Code/a.c/f sync_wait@/Code"; strings.Join(got, " ") != want {
			t.Errorf("pairs = %v, want %s", got, want)
		}
	}
	SameAnalytics(t, streamed, reference)
}

// frameEnds returns the offset just past every frame of an encoded archive.
func frameEnds(data []byte) []int {
	var ends []int
	for pos := len(chunkMagic); pos < len(data); {
		pos += 9 + int(binary.BigEndian.Uint32(data[pos+1:pos+5]))
		ends = append(ends, pos)
	}
	return ends
}

// An archive cut at every chunk boundary and inside every chunk: the
// truncated stream folds to the prefix up to its last complete barrier,
// enable outcomes counting from the whole prefix — after a second read, the
// only case that gets one.
func TestStreamingFoldMatchesReferenceAtEveryCut(t *testing.T) {
	a := foldArchive(rand.New(rand.NewSource(9)), 400)
	_, full := writeChunked(t, a, 24)
	ends := frameEnds(full)
	if len(ends) < 12 {
		t.Fatalf("only %d frames: the archive should span many chunks", len(ends))
	}
	dir := t.TempDir()
	opened, reads := 0, 0
	swapOpenFile(t, func(string, int64) { reads++ })
	for i, end := range ends[:len(ends)-1] { // past the header chunk, short of the trailer's end
		for _, cut := range []int{end, end + 1, end + 9, (end + ends[i+1]) / 2, ends[i+1] - 1} {
			path := filepath.Join(dir, "cut.ppdb")
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			reads = 0
			s, _ := OpenBothWays(t, path, RunMeta{ID: "r0001"})
			if reads != 3 { // LoadAny for the reference, the fold, the collecting second read
				t.Fatalf("cut at %d: the file was opened %d times, want 3 (reference, fold, second read)", cut, reads)
			}
			if i > 0 {
				opened++
				if s.SeriesFor(datasource.Pair{Metric: "sync_wait", Focus: resource.WholeProgram()}) == nil {
					t.Fatalf("cut at %d: the first enable is in the prefix and its pair is not in the view", cut)
				}
			}
		}
	}
	if opened == 0 {
		t.Fatal("no cut produced a truncated archive with events")
	}
}

// swapOpenFile wraps openFile for the rest of the test: each archive a
// consumer opens reports, when it is closed, its path and how many bytes were
// read from it.
func swapOpenFile(t testing.TB, closed func(path string, read int64)) {
	prev := openFile
	t.Cleanup(func() { openFile = prev })
	openFile = func(path string) (io.ReadCloser, error) {
		f, err := prev(path)
		if err != nil {
			return nil, err
		}
		return &countingFile{ReadCloser: f, path: path, closed: closed}, nil
	}
}

type countingFile struct {
	io.ReadCloser
	path   string
	n      int64
	closed func(string, int64)
}

func (c *countingFile) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingFile) Close() error {
	c.closed(c.path, c.n)
	return c.ReadCloser.Close()
}

// A complete archive is decoded exactly once per OpenRun and once per verify:
// one open, and as many bytes read as the file holds.
func TestCompleteArchiveIsReadOnce(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path, data := writeChunked(t, foldArchive(rand.New(rand.NewSource(3)), 500), 32)
	var reads []int64
	swapOpenFile(t, func(_ string, n int64) { reads = append(reads, n) })
	m, err := st.AddFile(path, AddMeta{Label: "once"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 || reads[0] != int64(len(data)) {
		t.Errorf("AddFile's verify read %v bytes of a %d-byte file, want the file once", reads, len(data))
	}
	reads = nil
	if _, err := st.OpenRun(m.ID); err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 || reads[0] != int64(len(data)) {
		t.Errorf("OpenRun read %v bytes of a %d-byte file, want the file once", reads, len(data))
	}
	reads = nil
	p, err := st.partial(strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.write(0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyStaged(p.path, AddMeta{}); err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 || reads[0] != int64(len(data)) {
		t.Errorf("the sync verify step read %v bytes of a %d-byte file, want the file once", reads, len(data))
	}
}

// The histogram configuration the fold starts under is the header chunk's. A
// recorder told another after its first event writes a trailer that
// disagrees, and the trailer is what a materialised archive carried.
func TestStreamingFoldTakesTheTrailersHistogram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "late.ppdb")
	rec, err := NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetHistogram(40, 50*sim.Millisecond)
	a := foldArchive(rand.New(rand.NewSource(5)), 120)
	for i, ev := range a.Events {
		if i == 10 {
			rec.SetHistogram(25, 20*sim.Millisecond)
		}
		rec.Record(ev)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ := OpenBothWays(t, path, RunMeta{ID: "r0001"})
	if s.NumBins != 25 || s.BinWidth != 20*sim.Millisecond {
		t.Errorf("folded under %d bins of %v, want the trailer's 25 of 20ms", s.NumBins, s.BinWidth)
	}
}
