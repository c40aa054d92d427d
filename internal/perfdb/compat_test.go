package perfdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// compatFixture is a traced archive written by the encoder as it was before
// trace shards were packed (commit c0b73f3: its WriteArchive over
// compatArchive()): 'E' chunks with flags 0 and 1 only, the shards in the gob
// section. Every archive recorded before this format change looks like it.
const compatFixture = "testdata/traced_gob_shards.ppdb"

// compatArchive is the session the fixture holds: every event kind, traced.
func compatArchive() *session.Archive {
	a := &session.Archive{Header: session.Header{
		Version: session.Version, NumBins: 100, BinWidth: 50 * sim.Millisecond,
		Meta:  map[string]string{"program": "compat", "seed": "7"},
		Extra: []byte("opaque harness payload"),
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
		add(session.Event{Kind: session.EvShard, Shard: sh})
		add(session.Event{Kind: session.EvShard, Shard: trace.Shard{Daemon: "paradynd@node0", Proc: "app{1}", Node: "node0",
			Spans: []trace.Span{span(seq, trace.MPISpan, "app{1}", "MPI_Recv", at, at+ms(3))}}})
		add(session.Event{Kind: session.EvShard, Shard: trace.Shard{Daemon: "paradynd@node0", Proc: "paradynd@node0", Node: "node0",
			Spans: []trace.Span{span(seq+1, trace.DaemonSample, "paradynd@node0", "sample", at, at)}}})
		seq += 2
		if tick%4 == 0 {
			add(session.Event{Kind: session.EvBarrier})
		}
	}
	add(
		session.Event{Kind: session.EvStale, Daemon: "paradynd@node1", Time: ms(700)},
		session.Event{Kind: session.EvGap, Gap: datasource.Gap{Node: "node1", From: ms(650), To: ms(700)}},
		session.Event{Kind: session.EvShard, Shard: trace.Shard{Daemon: "paradynd@node0", Proc: "app{1}", Node: "node0", Dropped: 3, OutboxLost: 2}},
		session.Event{Kind: session.EvUndelivered, Proc: "app{1}", N: 5},
	)
	a.Header.NumEvents = len(a.Events)
	return a
}

// chunkFlags returns the per-event flag bytes of every 'E' chunk of an
// encoded archive, concatenated.
func chunkFlags(data []byte) []byte {
	var flags []byte
	eachEventsChunk(data, func(p []byte) {
		nEvents, w := binary.Uvarint(p)
		flags = append(flags, p[w:w+int(nEvents)]...)
	})
	return flags
}

// replayed folds a loaded archive the way -replay does and renders what the
// trace plane and the sample plane hold at the end.
func replayed(t *testing.T, a *session.Archive) string {
	t.Helper()
	rs := session.NewReplaySource(a)
	series, err := rs.EnableMetric("sync_wait", resource.WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
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
	return out.String()
}

// An archive recorded before shards were packed still loads — through the
// gob path every other event kind uses — and replays to exactly what the
// same session replays to once this build has re-encoded it.
func TestArchiveWithGobShardsStillLoadsAndReplays(t *testing.T) {
	old, err := os.ReadFile(compatFixture)
	if err != nil {
		t.Fatal(err)
	}
	if flags := chunkFlags(old); bytes.IndexByte(flags, flagShard) >= 0 || bytes.IndexByte(flags, flagSamples) < 0 {
		t.Fatalf("fixture is not in the old layout: event flags % x", flags)
	}
	want := compatArchive()
	got, err := ReadArchive(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("archive with gob-encoded shards: %v", err)
	}
	if got.Truncated || !reflect.DeepEqual(got, want) {
		t.Fatalf("archive with gob-encoded shards loaded as a different session:\nwant %+v\ngot  %+v", want.Header, got.Header)
	}

	var buf bytes.Buffer
	if err := WriteArchive(&buf, got); err != nil {
		t.Fatal(err)
	}
	if flags := chunkFlags(buf.Bytes()); bytes.Count(flags, []byte{flagShard}) != 25 {
		t.Fatalf("re-encoded archive does not pack its 25 shards: event flags % x", flags)
	}
	if buf.Len() >= len(old) {
		t.Errorf("re-encoded archive is %d bytes, the gob-shard one %d; packing should shrink it", buf.Len(), len(old))
	}
	again, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range again.Events { // read back packed; compare as spans
		again.Events[i].Shard = spansForm(t, again.Events[i].Shard)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("the session changed on its way through the packed shard form")
	}
	if a, b := replayed(t, got), replayed(t, again); a != b || len(a) < 4000 {
		t.Errorf("the old archive and its re-encoding replay differently (%d vs %d bytes of exports)", len(a), len(b))
	}
}

// An archive recorded before the rest of the events were packed loads through
// the gob path it was written for, and its gob-free re-encoding loads to the
// same events and replays to the same report.
func TestArchiveWithGobRestEventsStillLoadsAndReplays(t *testing.T) {
	old, err := os.ReadFile(gobRestFixture)
	if err != nil {
		t.Fatal(err)
	}
	if flags := chunkFlags(old); bytes.IndexByte(flags, flagEvents) >= 0 || bytes.IndexByte(flags, flagGob) < 0 || bytes.IndexByte(flags, flagShard) < 0 {
		t.Fatalf("fixture is not in the gob-rest layout: event flags % x", flags)
	}
	want := gobRestArchive()
	got, err := ReadArchive(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("archive with a gob section: %v", err)
	}
	if got.Truncated {
		t.Fatal("complete fixture loaded as truncated")
	}
	archivesEquivalent(t, want, got)

	var buf bytes.Buffer
	if err := WriteArchive(&buf, got); err != nil {
		t.Fatal(err)
	}
	rest := 0
	for _, ev := range want.Events {
		if ev.Kind != session.EvSamples && ev.Kind != session.EvShard {
			rest++
		}
	}
	if flags := chunkFlags(buf.Bytes()); bytes.IndexByte(flags, flagGob) >= 0 || bytes.Count(flags, []byte{flagEvents}) != rest {
		t.Fatalf("re-encoded archive does not pack its %d other events: event flags % x", rest, flags)
	}
	if buf.Len() >= len(old) {
		t.Errorf("re-encoded archive is %d bytes, the gob-section one %d; packing should shrink it", buf.Len(), len(old))
	}
	again, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	archivesEquivalent(t, want, again)
	if a, b := replayedReport(t, got), replayedReport(t, again); a != b || !strings.Contains(a, "daemon refused") {
		t.Errorf("the old archive and its re-encoding replay differently:\n%s\n---\n%s", a, b)
	}
}

// replayedReport is replayed plus what the other event kinds leave behind: a
// refused enable's answer, the call graph, lost processes, gaps and coverage.
func replayedReport(t *testing.T, a *session.Archive) string {
	out := replayed(t, a)
	rs := session.NewReplaySource(a)
	_, refused := rs.EnableMetric("msg_bytes_sent", resource.Focus{CodePath: "/Code/app.c/f", MachinePath: "/Machine/node0/app{0}", SyncPath: "/SyncObject/Message/comm-1/tag-5"})
	rs.Drain()
	return fmt.Sprintf("%s\nrefused: %v\ncallees of main: %v\ngaps: %v\ncoverage %.3f\n%s", out, refused, rs.Callees("main"), rs.UnmeasuredGaps(), rs.Coverage(), rs.DegradationSummary())
}

// A fresh recording holds no gob: no 'E' chunk carries flag 0, and after its
// packed blobs comes the packed event section of exactly its flag-3 events,
// or nothing.
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
		if bytes.IndexByte(flags, flagGob) >= 0 {
			t.Fatalf("a fresh chunk carries flag 0: % x", flags)
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

// gobRestFixture is an archive written by the encoder as it was before the
// rest of the event kinds were packed (commit 3d8eb5c: its WriteArchive over
// gobRestArchive()): 'E' chunks with flags 0, 1 and 2, every enable, update,
// barrier, stale, undelivered and gap event in the chunk's gob section.
const gobRestFixture = "testdata/gob_rest_events.ppdb"

// gobRestArchive is the session that fixture holds: every non-sample kind,
// every scalar field of the flat Event union set somewhere, sample batches
// and one shard.
func gobRestArchive() *session.Archive {
	a := &session.Archive{Header: session.Header{
		Version: session.Version, NumBins: 64, BinWidth: 20 * sim.Millisecond,
		Meta:  map[string]string{"program": "gob-rest", "seed": "11"},
		Extra: []byte("harness payload"),
	}}
	whole := resource.WholeProgram()
	fn := resource.Focus{CodePath: "/Code/app.c/f", MachinePath: "/Machine/node0/app{0}", SyncPath: "/SyncObject/Message/comm-1/tag-5"}
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	add := func(evs ...session.Event) { a.Events = append(a.Events, evs...) }
	add(
		session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpHeartbeat, Daemon: "paradynd@node0"}},
		session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpAddResource, Path: "/Code/app.c/f", Proc: "app{0}", Daemon: "paradynd@node0", Time: ms(1)}},
		session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpSetName, Path: "/SyncObject/Message/comm-1", Display: "MPI_COMM_WORLD", Time: ms(2)}},
		session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpCallEdge, Caller: "main", Callee: "f", Proc: "app{0}", Time: ms(3), Daemon: "paradynd@node0"}},
		session.Event{Kind: session.EvEnable, Metric: "sync_wait", Focus: whole},
		session.Event{Kind: session.EvEnable, Metric: "msg_bytes_sent", Focus: fn, Err: "daemon refused: no such function"},
		session.Event{Kind: session.EvEnable, Metric: "cpu", Focus: fn},
	)
	for tick := 1; tick <= 6; tick++ {
		at := ms(20 * tick)
		add(session.Event{Kind: session.EvSamples, Samples: []datasource.Sample{
			{Metric: "sync_wait", Focus: whole, Proc: "app{0}", Time: at, Delta: 0.5 * float64(tick), Value: float64(tick)},
			{Metric: "cpu", Focus: fn, Proc: "app{1}", Time: at - 1, Delta: -0.25, Value: 1e-9 * float64(tick)},
		}})
		if tick == 3 {
			add(session.Event{Kind: session.EvShard, Shard: trace.Shard{Daemon: "paradynd@node0", Proc: "app{0}", Node: "node0", Dropped: 1,
				Spans: []trace.Span{{Seq: 4, Kind: trace.MPISpan, Proc: "app{0}", Node: "node0", Name: "MPI_Send", Start: at, End: at + ms(1), Peer: "app{1}", Tag: 5, Bytes: 64, Obj: "MPI_COMM_WORLD"}}}})
		}
		if tick%2 == 0 {
			add(session.Event{Kind: session.EvBarrier})
		}
	}
	add(
		session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpProcessLost, Path: "/Machine/node1/app{1}", Proc: "app{1}", Time: ms(130), Daemon: "paradynd@node1"}},
		session.Event{Kind: session.EvStale, Daemon: "paradynd@node1", Time: ms(140)},
		session.Event{Kind: session.EvGap, Gap: datasource.Gap{Node: "node1", From: ms(125), To: ms(140)}},
		session.Event{Kind: session.EvUndelivered, Proc: "app{1}", N: 7},
		session.Event{Kind: session.EvUndelivered, Proc: "app{0}", N: -1},
		session.Event{Kind: session.EvBarrier},
	)
	a.Header.NumEvents = len(a.Events)
	return a
}
