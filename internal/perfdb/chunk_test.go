package perfdb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pperf/internal/datasource"
	"pperf/internal/packed"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// randomShard generates a trace shard of n spans on one track: a small
// vocabulary, times that mostly advance, the odd negative tag and backward
// step.
func randomShard(rng *rand.Rand, n int) trace.Shard {
	names := []string{"MPI_Send", "MPI_Recv", "compute", "msg"}
	sh := trace.Shard{Daemon: "paradynd@node0", Proc: "app{0}", Node: "node0", Dropped: int64(rng.Intn(3))}
	at := sim.Time(rng.Intn(1e9))
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(50_000) - 5_000)
		sh.Spans = append(sh.Spans, trace.Span{
			Seq: uint64(rng.Intn(1e6)), Kind: trace.Kind(rng.Intn(int(trace.MarkEvent) + 1)),
			Proc: sh.Proc, Node: sh.Node, Name: names[rng.Intn(len(names))],
			Start: at, End: at + sim.Time(rng.Intn(9_000)), Depth: rng.Intn(3),
			Peer: "app{1}", Tag: rng.Intn(9) - 2, Bytes: rng.Intn(1 << 16), Obj: "MPI_COMM_WORLD",
			Flow: uint64(rng.Intn(4)), Wait: rng.Intn(2) == 0,
		})
	}
	return sh
}

// syntheticArchive builds an archive exercising every event kind.
func syntheticArchive(rng *rand.Rand, nEvents int) *session.Archive {
	a := &session.Archive{Header: session.Header{
		Version:  session.Version,
		NumBins:  100,
		BinWidth: 50 * sim.Millisecond,
		Meta:     map[string]string{"program": "synthetic", "seed": "1"},
	}}
	focus := resource.Focus{CodePath: "/Code", MachinePath: "/Machine", SyncPath: "/SyncObject"}
	a.Events = append(a.Events,
		session.Event{Kind: session.EvEnable, Metric: "m1", Focus: focus},
		session.Event{Kind: session.EvEnable, Metric: "m2", Focus: focus, Err: "daemon refused"},
	)
	for len(a.Events) < nEvents {
		switch rng.Intn(8) {
		case 0, 1, 2:
			a.Events = append(a.Events, session.Event{Kind: session.EvSamples, Samples: randomBatch(rng, 1+rng.Intn(16))})
		case 3:
			a.Events = append(a.Events, session.Event{Kind: session.EvUpdate, Update: datasource.Update{
				Kind: datasource.UpAddResource, Path: "/Machine/node0/p{0}", Time: sim.Time(rng.Intn(1e9)), Daemon: "paradynd@node0",
			}})
		case 4:
			a.Events = append(a.Events, session.Event{Kind: session.EvBarrier})
		case 5:
			a.Events = append(a.Events, session.Event{Kind: session.EvShard, Shard: randomShard(rng, rng.Intn(40))})
		case 6:
			a.Events = append(a.Events,
				session.Event{Kind: session.EvStale, Update: datasource.Update{Daemon: "paradynd@node1", Time: sim.Time(rng.Intn(1e9))}},
				session.Event{Kind: session.EvUndelivered, Proc: "app{1}", N: int64(rng.Intn(9))})
		default:
			a.Events = append(a.Events, session.Event{Kind: session.EvGap, Gap: datasource.Gap{Node: "node1", From: 1, To: 2}})
		}
	}
	a.Header.NumEvents = len(a.Events)
	return a
}

// samplesOf returns a sample event's batch decoded, whichever form it is in:
// a read archive keeps its batches packed, the tests build theirs from
// samples.
func samplesOf(ev *session.Event) []datasource.Sample {
	if ev.Batch != nil {
		return decoded(ev.Batch)
	}
	return ev.Samples
}

// decoded returns a kept batch decoded into Samples by the unpacker a live
// listener uses.
func decoded(b *session.PackedBatch) []datasource.Sample {
	out, err := new(session.Unpacker).UnpackSamplesInto(nil, b.Data)
	if err != nil {
		panic(err) // the load checked it
	}
	return out
}

// materialised returns a with every kept batch decoded into Samples: the
// archive a read built before it kept its batches packed.
func materialised(a *session.Archive) *session.Archive {
	out := *a
	out.Events = slices.Clone(a.Events)
	for i := range out.Events {
		if ev := &out.Events[i]; ev.Batch != nil {
			ev.Samples, ev.Batch = decoded(ev.Batch), nil
		}
	}
	return &out
}

// archivesEquivalent compares two archives field by field, comparing
// sample batches bit-exactly (DeepEqual rejects NaN), in whichever form
// each holds them, and treating nil and empty batches as equal.
func archivesEquivalent(t *testing.T, want, got *session.Archive) {
	t.Helper()
	if !reflect.DeepEqual(want.Header, got.Header) {
		t.Fatalf("header mismatch:\nwant %+v\ngot  %+v", want.Header, got.Header)
	}
	if len(want.Events) != len(got.Events) {
		t.Fatalf("event count %d round-tripped to %d", len(want.Events), len(got.Events))
	}
	for i := range want.Events {
		we, ge := want.Events[i], got.Events[i]
		if we.Kind == session.EvSamples && ge.Kind == session.EvSamples {
			ws, gs := samplesOf(&we), samplesOf(&ge)
			if len(ws) != len(gs) {
				t.Fatalf("event %d: batch size %d -> %d", i, len(ws), len(gs))
			}
			for j := range ws {
				if !sampleEqual(ws[j], gs[j]) {
					t.Fatalf("event %d sample %d: %+v -> %+v", i, j, ws[j], gs[j])
				}
			}
			continue
		}
		we.Samples, ge.Samples, we.Batch, ge.Batch = nil, nil, nil, nil
		we.Shard, ge.Shard = spansForm(t, we.Shard), spansForm(t, ge.Shard)
		if !reflect.DeepEqual(we, ge) {
			t.Fatalf("event %d mismatch:\nwant %+v\ngot  %+v", i, we, ge)
		}
	}
}

// spansForm returns sh with its spans materialised, whichever form it is in:
// a read archive holds its shards packed, the tests build theirs from spans.
func spansForm(t testing.TB, sh trace.Shard) trace.Shard {
	t.Helper()
	out, err := trace.UnpackShard(new(packed.Table), sh.Packed())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestChunkedArchiveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 50, 700, 1500} {
		a := syntheticArchive(rng, n)
		var buf bytes.Buffer
		if err := WriteArchive(&buf, a); err != nil {
			t.Fatal(err)
		}
		got, err := ReadArchive(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Truncated {
			t.Fatalf("n=%d: complete archive loaded as truncated", n)
		}
		archivesEquivalent(t, a, got)
	}
}

func TestChunkedArchiveDeterministic(t *testing.T) {
	a := syntheticArchive(rand.New(rand.NewSource(9)), 300)
	var b1, b2 bytes.Buffer
	if err := WriteArchive(&b1, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteArchive(&b2, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two encodings of the same archive differ")
	}
}

func TestTruncatedChunkedArchive(t *testing.T) {
	a := syntheticArchive(rand.New(rand.NewSource(5)), 1200) // several chunks
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cutting anywhere after the header chunk must load as a truncated
	// archive whose events are a prefix of the original — or error (cuts
	// inside the header chunk or magic), never panic or misdecode. Where a
	// decoder can go wrong is at the frame structure, so the cuts are there:
	// inside the magic, at every frame boundary and one byte either side of
	// it, at each frame's first payload byte and in the middle of its payload.
	cuts := []int{0, len(chunkMagic) / 2}
	for start := len(chunkMagic); start < len(full); {
		n := int(binary.BigEndian.Uint32(full[start+1 : start+5]))
		cuts = append(cuts, start-1, start, start+1, start+9, start+9+n/2)
		start += 9 + n
	}
	cuts = append(cuts, len(full)-1)
	seenTruncated := false
	for _, cut := range cuts {
		got, err := ReadArchive(bytes.NewReader(full[:cut]))
		if err != nil {
			continue
		}
		if !got.Truncated {
			t.Fatalf("cut at %d: complete-looking archive from a truncated stream", cut)
		}
		seenTruncated = true
		if len(got.Events) > len(a.Events) {
			t.Fatalf("cut at %d: %d events from %d", cut, len(got.Events), len(a.Events))
		}
		// The surviving prefix must be faithful.
		want := &session.Archive{Header: got.Header, Events: a.Events[:len(got.Events)]}
		wantHdr := a.Header // the header chunk holds all of it
		wantHdr.NumEvents = len(got.Events)
		if !reflect.DeepEqual(got.Header, wantHdr) {
			t.Fatalf("cut at %d: truncated header %+v, want provisional %+v", cut, got.Header, wantHdr)
		}
		want.Header = got.Header
		archivesEquivalent(t, want, got)
	}
	if !seenTruncated {
		t.Error("no cut position produced a truncated archive")
	}
}

func TestCorruptChunkRejected(t *testing.T) {
	a := syntheticArchive(rand.New(rand.NewSource(6)), 400)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one byte inside a chunk payload (past magic + frame header):
	// the CRC must catch it.
	for _, pos := range []int{20, len(full) / 2, len(full) - 3} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		_, err := ReadArchive(bytes.NewReader(mut))
		if err == nil {
			t.Errorf("flip at %d: corrupt archive loaded cleanly", pos)
			continue
		}
		if !strings.Contains(err.Error(), "CRC") && !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("flip at %d: unexpected error %v", pos, err)
		}
	}
	// Garbage after the trailer is refused.
	if _, err := ReadArchive(bytes.NewReader(append(append([]byte(nil), full...), 'x'))); err == nil {
		t.Error("data beyond the trailer loaded cleanly")
	}
	// Wrong magic is refused.
	bad := append([]byte("NOTFMT"), full[6:]...)
	if _, err := ReadArchive(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic loaded cleanly")
	}
}

// eachEventsChunk calls fn with the payload of every 'E' chunk of an encoded
// archive, in order.
func eachEventsChunk(data []byte, fn func(payload []byte)) {
	for data = data[len(chunkMagic):]; len(data) > 0; {
		kind, n := data[0], int(binary.BigEndian.Uint32(data[1:5]))
		if kind == chunkEvents {
			fn(data[9 : 9+n])
		}
		data = data[9+n:]
	}
}

// eventChunks returns, per 'E' chunk of an encoded archive, how many events
// it holds and how long its payload is.
func eventChunks(data []byte) (events, payload []int) {
	eachEventsChunk(data, func(p []byte) {
		nEvents, _ := binary.Uvarint(p)
		events, payload = append(events, int(nEvents)), append(payload, len(p))
	})
	return events, payload
}

// A pending chunk is flushed by its weight as well as by its event count:
// 512 full trace shards used to make one chunk of tens of megabytes, which
// the reader then allocated as one buffer.
func TestPendingChunkIsBoundedInBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full := session.Event{Kind: session.EvShard, Shard: randomShard(rng, 16384)}
	oneShard := len(full.Shard.Packed())
	a := &session.Archive{Header: session.Header{Version: session.Version, NumBins: 100, BinWidth: sim.Millisecond}}
	for i := 0; i < 60; i++ {
		a.Events = append(a.Events, full,
			session.Event{Kind: session.EvSamples, Samples: randomBatch(rng, 8)},
			session.Event{Kind: session.EvBarrier})
	}
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	events, payload := eventChunks(buf.Bytes())
	if len(events) < 60*oneShard/(maxPendingPacked+oneShard) {
		t.Fatalf("%d MB of packed shards landed in %d chunks", 60*oneShard>>20, len(events))
	}
	for i, n := range payload {
		// The bound, the blob that crossed it, and the chunk's few other
		// events and flag bytes.
		if limit := maxPendingPacked + oneShard + 4096; n > limit || events[i] >= DefaultFlushEvents {
			t.Errorf("chunk %d: %d events in %d bytes, want fewer than %d events in at most %d bytes", i, events[i], n, DefaultFlushEvents, limit)
		}
	}
	got, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a.Header.NumEvents = len(a.Events)
	archivesEquivalent(t, a, got)

	// Sample batches never get near the bound, so an untraced archive is
	// cut exactly where it always was: every DefaultFlushEvents events.
	b := &session.Archive{Header: a.Header}
	for i := 0; i < 3*DefaultFlushEvents+10; i++ {
		b.Events = append(b.Events, session.Event{Kind: session.EvSamples, Samples: randomBatch(rng, 64)})
	}
	buf.Reset()
	if err := WriteArchive(&buf, b); err != nil {
		t.Fatal(err)
	}
	events, payload = eventChunks(buf.Bytes())
	if want := []int{DefaultFlushEvents, DefaultFlushEvents, DefaultFlushEvents, 10}; !reflect.DeepEqual(events, want) {
		t.Errorf("untraced archive chunked as %v events, want %v", events, want)
	}
	for i, n := range payload {
		if n > maxPendingPacked/2 {
			t.Errorf("untraced chunk %d is %d bytes: 64-sample batches should stay far below the %d-byte bound", i, n, maxPendingPacked)
		}
	}
}

// replayEventsInto re-records an event stream through the Sink interface.
func replayEventsInto(rec session.Sink, events []session.Event) {
	for _, ev := range events {
		rec.Record(ev)
	}
}

// testFrame frames a payload the way chunkWriter.writeChunk does.
func testFrame(kind byte, payload []byte) []byte {
	hdr := make([]byte, 9, 9+len(payload))
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:9], wire.Checksum(payload))
	return append(hdr, payload...)
}

// eventsPayload assembles an 'E' payload from its sections — the flags, the
// packed blobs, and what follows them: a packed event section or nothing —
// without checking that they agree, which is the point.
func eventsPayload(flags []byte, nPacked int, blobs [][]byte, tail []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(flags)))
	out = append(out, flags...)
	out = binary.AppendUvarint(out, uint64(nPacked))
	for _, b := range blobs {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...)
	}
	return append(out, tail...)
}

// gobSection encodes events the way the PPDBA1 writer did before they were
// packed: the section that followed the blobs of a chunk with flag-0 events.
func gobSection(t testing.TB, rest []session.Event) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(rest); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// rawHeader builds a header record by hand, for what appendHeader cannot
// write: the Meta pairs as given (a key twice, say), any version, and bytes
// after the pairs.
func rawHeader(pairs [][2]string, version int64, tail []byte) []byte {
	var w packed.Writer
	w.Reset()
	for _, p := range pairs {
		w.Recs = append(w.Recs, [5]uint64{w.Intern(p[0]), w.Intern(p[1])})
	}
	out := w.Head(nil, len(pairs))
	for _, x := range []int64{version, 0, 100, int64(50 * sim.Millisecond), 0} {
		out = binary.AppendVarint(out, x)
	}
	for _, r := range w.Recs {
		out = binary.AppendUvarint(binary.AppendUvarint(out, r[0]), r[1])
	}
	return append(out, tail...)
}

// readBothWays runs data through the collecting reader and through the
// streaming pass every other consumer makes, and fails the test unless the
// two say the same: the same error string, or the same header, event count
// and truncated flag.
func readBothWays(t testing.TB, data []byte) (*session.Archive, error) {
	t.Helper()
	a, collectErr := ReadArchive(bytes.NewReader(data))
	s, streamErr := scanArchive(bytes.NewReader(data), nil)
	switch {
	case collectErr != nil || streamErr != nil:
		if collectErr == nil || streamErr == nil || collectErr.Error() != streamErr.Error() {
			t.Fatalf("the collecting reader says %v, the streaming pass %v", collectErr, streamErr)
		}
	case a == nil:
		t.Fatal("nil archive with nil error")
	case len(a.Events) != s.events || a.Truncated != s.truncated || !reflect.DeepEqual(a.Header, s.header):
		t.Fatalf("the collecting reader holds %d events (truncated %v) under %+v, the streaming pass %d (%v) under %+v",
			len(a.Events), a.Truncated, a.Header, s.events, s.truncated, s.header)
	}
	return a, collectErr
}

// Hostile input sees one decoder: every corruption is refused by the
// collecting reader, the verify step and OpenRun with one and the same error.
func TestCorruptArchivesFailTheSameEverywhere(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArchive(&buf, syntheticArchive(rand.New(rand.NewSource(6)), 40)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	ends := frameEnds(full)
	if len(ends) != 3 {
		t.Fatalf("%d frames, want header, one events chunk, trailer", len(ends))
	}
	magic, header, events, trail := full[:6], full[6:ends[0]], full[ends[0]:ends[1]], full[ends[1]:]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	var hw packed.Writer
	trailerOf := func(events, chunks int) []byte {
		return appendHeader(nil, &hw, session.Header{Version: session.Version, NumEvents: events, NumBins: 100, BinWidth: 50 * sim.Millisecond}, chunks)
	}
	var pk session.Packer
	batch := pk.PackSamples(nil, randomBatch(rand.New(rand.NewSource(2)), 6))
	badBatch := append([]byte(nil), batch...)
	badBatch[len(badBatch)-1] |= 0x80 // the last varint never ends
	barrier := []session.Event{{Kind: session.EvBarrier}}
	gobBarrier, packedBarrier := gobSection(t, barrier), pk.PackEvents(nil, barrier)
	section := func(flags []byte, tail []byte) []byte {
		return cat(magic, header, testFrame(chunkEvents, eventsPayload(flags, 0, nil, tail)))
	}
	oversize := testFrame(chunkEvents, nil)
	binary.BigEndian.PutUint32(oversize[1:5], maxChunkPayload+1)
	flipped := append([]byte(nil), full...)
	flipped[ends[0]+9+20] ^= 0x40

	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"bad magic", cat([]byte("NOTFMT"), full[6:]), "bad magic"},
		{"retired magic", cat([]byte("PPARCH"), full[6:]), "v1 PPARCH archive format retired"},
		{"retired PPDBA1 magic", cat([]byte("PPDBA1"), full[6:]), "PPDBA1 archive format retired"},
		{"duplicate meta key", cat(magic, testFrame(chunkHeader, rawHeader([][2]string{{"seed", "1"}, {"seed", "2"}}, session.Version, nil))), `corrupt archive header: duplicate meta key "seed"`},
		// A current header with the Extra tail version 1 wrote (its length,
		// here overrunning the input) has bytes left over.
		{"extra overruns", cat(magic, testFrame(chunkHeader, rawHeader(nil, session.Version, append([]byte{9}, "payload"...)))), "corrupt archive header: 8 trailing bytes"},
		{"header trailing bytes", cat(magic, testFrame(chunkHeader, rawHeader(nil, session.Version, []byte{0})), events, trail), "corrupt archive header: 1 trailing bytes"},
		// A version 1 header is refused by its version, not by the Extra
		// payload this version does not read.
		{"version 1 header with its Extra", cat(magic, testFrame(chunkHeader, rawHeader([][2]string{{"seed", "1"}}, 1, append([]byte{7}, "payload"...))), events, trail),
			"perfdb: archive event-schema version 1; this build reads version 2"},
		{"trailer trailing bytes", cat(magic, header, events, testFrame(chunkTrailer, append(trailerOf(40, 1), 0))), "corrupt archive trailer: 1 trailing bytes"},
		{"duplicate header", cat(magic, header, header, events, trail), "duplicate header chunk"},
		{"events before header", cat(magic, events, trail), "events before the header chunk"},
		{"trailer before header", cat(magic, trail), "trailer before the header chunk"},
		{"unknown chunk kind", cat(magic, header, testFrame('X', nil)), "unknown chunk kind"},
		{"CRC mismatch", flipped, "chunk 1 CRC mismatch"},
		{"oversize payload length", cat(magic, header, oversize), "declares 1073741825-byte payload"},
		{"bad event flag", cat(magic, header, testFrame(chunkEvents, eventsPayload([]byte{7}, 0, nil, nil))), "bad event flag 7"},
		// Flag 0 marked a PPDBA1 event in the gob section; no reader of
		// that section is left, so each of these is a bad flag.
		{"bad event flag 0", section([]byte{0}, nil), "bad event flag 0"},
		{"gob count mismatch", section([]byte{0, 0}, gobBarrier), "bad event flag 0"},
		{"sample event in the gob section", section([]byte{0}, gobSection(t, []session.Event{{Kind: session.EvSamples}})), "bad event flag 0"},
		{"gob and packed events in one chunk", section([]byte{0, flagEvents}, gobBarrier), "bad event flag 0"},
		{"flag bytes overrun", cat(magic, header, testFrame(chunkEvents, []byte{2, 0})), "flag bytes overrun input"},
		{"blob count mismatch", cat(magic, header, testFrame(chunkEvents, eventsPayload([]byte{flagSamples, flagEvents}, 2, [][]byte{batch, batch}, packedBarrier))), "2 packed blobs, flags promise 1"},
		{"blob overruns chunk", cat(magic, header, testFrame(chunkEvents, append(binary.AppendUvarint([]byte{1, flagSamples, 1}, 999), batch...))), "packed blob 0 overruns input"},
		{"corrupt packed blob behind a good CRC", cat(magic, header, testFrame(chunkEvents, eventsPayload([]byte{flagEvents, flagSamples}, 1, [][]byte{badBatch}, packedBarrier))), "corrupt sample batch"},
		// Refused at load, the collecting read included: a batch it keeps
		// packed is one it checked record by record.
		{"sample batch dictionary index", badIndexArchive(t), "session: corrupt sample batch: dictionary index 5 of 1"},
		{"section count mismatch", section([]byte{flagEvents, flagEvents}, packedBarrier), "1 packed events, flags promise 2"},
		{"section without its flags", section([]byte{flagEvents}, nil), "0 packed events, flags promise 1"},
		{"sample record in the section", section([]byte{flagEvents}, pk.PackEvents(nil, []session.Event{{Kind: session.EvSamples}})), "corrupt event section: samples event with field mask 0x0 at record 0"},
		{"shard record in the section", section([]byte{flagEvents}, pk.PackEvents(nil, []session.Event{{Kind: session.EvShard}})), "corrupt event section: shard event with field mask 0x0 at record 0"},
		{"section dictionary index", section([]byte{flagEvents}, []byte{1, 0, byte(session.EvEnable) << 1, 1 << 6, 0}), "dictionary index 0 of 0"},
		{"section trailing bytes", section([]byte{flagEvents}, append(pk.PackEvents(nil, barrier), 0)), "corrupt event section: 1 trailing bytes"},
		{"section without its flags' events", cat(magic, header, testFrame(chunkEvents, eventsPayload([]byte{flagSamples}, 1, [][]byte{batch}, packedBarrier))), "bytes after the packed blobs, no event section promised"},
		{"trailer event count", cat(magic, header, events, testFrame(chunkTrailer, trailerOf(41, 1))), "trailer declares 41 events, chunks hold 40"},
		{"trailer chunk count", cat(magic, header, events, testFrame(chunkTrailer, trailerOf(40, 2))), "trailer declares 2 event chunks, read 1"},
		{"garbage trailer", cat(magic, header, events, testFrame(chunkTrailer, []byte{0xde, 0xad})), "corrupt archive trailer"},
		{"data beyond the trailer", cat(full, []byte{'x'}), "data beyond the trailer"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readBothWays(t, tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			path := filepath.Join(dir, "bad.ppdb")
			if werr := os.WriteFile(path, tc.data, 0o644); werr != nil {
				t.Fatal(werr)
			}
			if _, verr := verifyStaged(path, AddMeta{}); verr == nil || verr.Error() != err.Error() {
				t.Errorf("the verify step says %v, the collecting reader %v", verr, err)
			}
			if _, oerr := openRun(path, RunMeta{}); oerr == nil || oerr.Error() != err.Error() {
				t.Errorf("OpenRun says %v, the collecting reader %v", oerr, err)
			}
		})
	}
	if _, err := readBothWays(t, full); err != nil {
		t.Errorf("the archive the cases were cut from: %v", err)
	}
}

// oneChunkOfBatches is an archive whose one event chunk holds n one-sample
// batches, batch i naming process p<i/2>: every dictionary has the same
// length, no two neighbouring pairs of batches share one, and each batch
// repeats its twin's dictionary and layout.
func oneChunkOfBatches(t testing.TB, n int) []byte {
	var buf bytes.Buffer
	cw, err := newChunkWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cw.perChunk = n + 1
	h := session.Header{NumBins: 100, BinWidth: 50 * sim.Millisecond}
	if err := cw.writeHeader(chunkHeader, h, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		sm := datasource.Sample{Metric: "m", Proc: "p" + strconv.Itoa(i/2), Time: sim.Time(i), Delta: 1}
		if err := cw.add(session.Event{Kind: session.EvSamples, Samples: []datasource.Sample{sm}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.close(h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A load shares a dictionary, or a whole layout, only between batches whose
// content is equal, and finds it by hash: a chunk of many batches with
// distinct dictionaries loads in time linear in its batches. Comparing each
// batch with every earlier Dict makes 8 times the batches load about 50
// times slower, well past the bound.
func TestManyDistinctBatchesInOneChunkLoadInLinearTime(t *testing.T) {
	load := func(data []byte) (*session.Archive, time.Duration) {
		best := time.Duration(math.MaxInt64)
		var a *session.Archive
		for range 5 {
			start := time.Now()
			var err error
			if a, err = ReadArchive(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return a, best
	}
	const n = 1 << 14
	_, small := load(oneChunkOfBatches(t, n/8))
	a, large := load(oneChunkOfBatches(t, n))
	if large > 24*small {
		t.Errorf("%d batches load in %v, %d in %v: more than linear", n/8, small, n, large)
	}
	dicts := map[*datasource.Dict]bool{}
	for i, ev := range a.Events {
		d := ev.Batch.Dictionary()
		if want := "p" + strconv.Itoa(i/2); !slices.Contains(d.Strs, want) || len(d.Targets) != 1 {
			t.Fatalf("batch %d keeps dictionary %q, targets %v; want one naming %s", i, d.Strs, d.Targets, want)
		}
		dicts[d] = true
	}
	if len(a.Events) != n || len(dicts) != n/2 || a.Events[0].Batch.Dictionary().Numbering.N != n/2 {
		t.Errorf("%d batches keep %d Dicts over %d targets; want %d, %d, %d", len(a.Events), len(dicts), a.Events[0].Batch.Dictionary().Numbering.N, n, n/2, n/2)
	}
}
