package perfdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// formatGolden is WriteArchive(compatArchive()) as this format writes it.
// Regenerate it only with a deliberate format change: write that call's
// bytes to the path.
const formatGolden = "testdata/format_v2.ppdb"

// The archives an older format wrote, kept so that loading one stays a
// refusal: compatFixture, a traced PPDBA1 archive from before trace shards
// were packed (its 'E' chunks carry flags 0 and 1, the shards in a gob
// section), and gobRestFixture, one from before the rest of the event kinds
// were (flags 0, 1 and 2), both with gob headers and trailers; and
// schemaV1Fixture, WriteArchive(compatArchive()) at event-schema version 1,
// whose header records end in the opaque Extra payload a harness once set.
const (
	compatFixture   = "testdata/traced_gob_shards.ppdb"
	gobRestFixture  = "testdata/gob_rest_events.ppdb"
	schemaV1Fixture = "testdata/schema_v1_extra.ppdb"
)

// compatArchive is the session the fixture holds: every event kind, traced.
func compatArchive() *session.Archive {
	a := &session.Archive{Header: session.Header{
		Version: session.Version, NumBins: 100, BinWidth: 50 * sim.Millisecond,
		Meta: map[string]string{"program": "compat", "seed": "7", "runtime": "1250000000"},
	}}
	whole := resource.WholeProgram()
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	span := func(seq uint64, kind trace.Kind, proc, name string, start, end sim.Time) trace.Span {
		return trace.Span{Seq: seq, Kind: kind, Proc: proc, Node: "node0", Name: name, Start: start, End: end}
	}
	add := func(evs ...session.Event) { a.Events = append(a.Events, evs...) }
	add(
		session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpHeartbeat, Daemon: "paradynd@node0"}},
		session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/app{0}", Proc: "app{0}", Daemon: "paradynd@node0", Time: ms(1)}},
		session.Event{Kind: session.EvEnable, Metric: "sync_wait", Focus: whole},
		session.Event{Kind: session.EvEnable, Metric: "io_wait", Focus: whole, Err: "daemon refused"},
	)
	var seq uint64
	for tick := 1; tick <= 8; tick++ {
		at := ms(50 * tick)
		add(session.Event{Kind: session.EvSamples, Samples: []datasource.Sample{
			{Metric: "sync_wait", Focus: whole, Proc: "app{0}", Time: at, Delta: 0.125 * float64(tick), Value: float64(tick)},
			{Metric: "sync_wait", Focus: whole, Proc: "app{1}", Time: at, Delta: 0.25, Value: 0.25 * float64(tick)},
		}})
		sh := trace.Shard{Daemon: "paradynd@node0", Proc: "app{0}", Node: "node0", Dropped: int64(tick / 5)}
		for i := 0; i < 6; i++ {
			t0 := at + ms(i)
			sh.Spans = append(sh.Spans, span(seq, trace.ComputeSpan, "app{0}", "compute", t0, t0+ms(1)))
			send := span(seq+1, trace.MPISpan, "app{0}", "MPI_Send", t0+ms(1), t0+ms(2))
			send.Peer, send.Tag, send.Bytes, send.Obj = "1", 4, 8192, "MPI_COMM_WORLD"
			edge := span(seq+2, trace.EdgeEvent, "app{0}", "msg", t0, t0+ms(2))
			edge.Peer, edge.Flow, edge.Wait = "app{1}", seq+1, i%2 == 0
			sh.Spans = append(sh.Spans, send, edge)
			seq += 3
		}
		add(session.Event{Kind: session.EvShard, Shard: &sh})
		add(session.Event{Kind: session.EvShard, Shard: &trace.Shard{Daemon: "paradynd@node0", Proc: "app{1}", Node: "node0",
			Spans: []trace.Span{span(seq, trace.MPISpan, "app{1}", "MPI_Recv", at, at+ms(3))}}})
		add(session.Event{Kind: session.EvShard, Shard: &trace.Shard{Daemon: "paradynd@node0", Proc: "paradynd@node0", Node: "node0",
			Spans: []trace.Span{span(seq+1, trace.DaemonSample, "paradynd@node0", "sample", at, at)}}})
		seq += 2
		if tick%4 == 0 {
			add(session.Event{Kind: session.EvBarrier})
		}
	}
	add(
		session.Event{Kind: session.EvStale, Update: datasource.Update{Daemon: "paradynd@node1", Time: ms(700)}},
		session.Event{Kind: session.EvGap, Gap: datasource.Gap{Node: "node1", From: ms(650), To: ms(700)}},
		session.Event{Kind: session.EvShard, Shard: &trace.Shard{Daemon: "paradynd@node0", Proc: "app{1}", Node: "node0", Dropped: 3, OutboxLost: 2}},
		session.Event{Kind: session.EvUndelivered, Proc: "app{1}", N: 5},
	)
	a.Header.NumEvents = len(a.Events)
	return a
}

// replayed folds a loaded archive the way -replay does and renders what the
// trace plane and the sample plane hold at the end, a refused enable's
// answer, the call graph, lost processes, gaps and coverage.
func replayed(t *testing.T, a *session.Archive) string {
	t.Helper()
	rs := session.NewReplaySource(a)
	series, err := rs.EnableMetric("sync_wait", resource.WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	_, refused := rs.EnableMetric("io_wait", resource.WholeProgram())
	rs.Drain()
	var out bytes.Buffer
	tl := rs.Timeline()
	if err := trace.WriteChrome(&out, tl); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(&out, tl); err != nil {
		t.Fatal(err)
	}
	out.WriteString(trace.Analyze(tl).Render())
	out.WriteString(rs.ExportCSV(series))
	fmt.Fprintf(&out, "\nrefused: %v\ncallees of main: %v\ngaps: %v\ncoverage %.3f\n%s", refused, rs.Callees("main"), rs.UnmeasuredGaps(), rs.Coverage(), rs.DegradationSummary())
	return out.String()
}

// The format is pinned byte for byte: WriteArchive of a session with every
// event kind, trace shards and Meta reproduces the checked-in file, in
// any process — nothing in the encoding depends on the order a process met
// its types or its map keys — and the file loads and replays as that session.
func TestFormatGolden(t *testing.T) {
	golden, err := os.ReadFile(formatGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := compatArchive()
	var buf bytes.Buffer
	if err := WriteArchive(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("WriteArchive(compatArchive()) is %d bytes unlike the %d of %s: the encoding changed", buf.Len(), len(golden), formatGolden)
	}
	got, err := ReadArchive(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated {
		t.Fatal("the golden archive loaded as truncated")
	}
	archivesEquivalent(t, want, got)
	if a, b := replayed(t, want), replayed(t, got); a != b || len(a) < 4000 || !strings.Contains(a, "daemon refused") {
		t.Errorf("the golden archive replays unlike the session it holds (%d vs %d bytes of exports)", len(b), len(a))
	}
}

// An archive an older format wrote is refused, and says so: nothing decodes
// a gob header, trailer or event section any more, and an archive of another
// event-schema version is refused by its version before its header's layout
// is trusted.
func TestRetiredArchivesAreRefused(t *testing.T) {
	for _, tc := range []struct {
		path, want string
		retired    bool
	}{
		{compatFixture, "perfdb: PPDBA1 archive format retired; re-record the run", true},
		{gobRestFixture, "perfdb: PPDBA1 archive format retired; re-record the run", true},
		{schemaV1Fixture, "perfdb: archive event-schema version 1; this build reads version 2", false},
	} {
		t.Run(strings.TrimSuffix(filepath.Base(tc.path), ".ppdb"), func(t *testing.T) {
			_, err := LoadAny(tc.path)
			if err == nil || errors.Is(err, ErrRetiredFormat) != tc.retired || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("LoadAny(%s): %v, want %q", tc.path, err, tc.want)
			}
			if _, verr := scanFile(tc.path, nil); verr == nil || verr.Error() != err.Error() {
				t.Errorf("verifying %s: %v, loading it: %v", tc.path, verr, err)
			}
			if _, oerr := openRun(tc.path, RunMeta{}); oerr == nil || oerr.Error() != err.Error() {
				t.Errorf("folding %s: %v, loading it: %v", tc.path, oerr, err)
			}
		})
	}
}

// A fresh recording holds no gob: after each 'E' chunk's packed blobs comes
// the packed event section of exactly its flag-3 events, or nothing.
func TestWriterEmitsNoGobSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.ppdb")
	rec, err := NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	replayEventsInto(rec, syntheticArchive(rng, 3*DefaultFlushEvents).Events)
	for i := 0; i < DefaultFlushEvents+9; i++ { // chunks with no section
		rec.Record(session.Event{Kind: session.EvSamples, Samples: randomBatch(rng, 4)})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var up session.Unpacker
	withSection, without := 0, 0
	eachEventsChunk(data, func(p []byte) {
		nEvents, w := binary.Uvarint(p)
		flags := p[w : w+int(nEvents)]
		p = p[w+int(nEvents):]
		nPacked, w := binary.Uvarint(p)
		for p = p[w:]; nPacked > 0; nPacked-- {
			l, w := binary.Uvarint(p)
			p = p[w+int(l):]
		}
		n := bytes.Count(flags, []byte{flagEvents})
		if n == 0 {
			if len(p) != 0 {
				t.Fatalf("a chunk without flag-3 events holds %d bytes after its blobs", len(p))
			}
			without++
			return
		}
		if evs, err := up.UnpackEventsInto(nil, p); err != nil || len(evs) != n {
			t.Fatalf("after the blobs: %d events (err %v), want the section of the %d flag-3 events", len(evs), err, n)
		}
		withSection++
	})
	if withSection == 0 || without == 0 {
		t.Errorf("%d chunks with a section and %d without: the recording should hold both", withSection, without)
	}
}
