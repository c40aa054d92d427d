package perfdb

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
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
