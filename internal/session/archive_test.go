package session_test

// The session archive's on-disk contract — round trip, truncation handling,
// and hostile input — exercised through the one codec that implements it:
// perfdb's streaming recorder and PPDBA1 loader. (An external test package,
// because perfdb imports session.)

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"pperf/internal/datasource"
	"pperf/internal/perfdb"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// allKinds is the order recordAll emits one event of every kind in.
var allKinds = []session.EventKind{
	session.EvEnable, session.EvUpdate, session.EvSamples, session.EvShard,
	session.EvBarrier, session.EvStale, session.EvUndelivered,
}

// recordAll streams one event of every kind, rounds times over, to a fresh
// archive and returns the file's bytes. The recorder flushes a chunk every
// perfdb.DefaultFlushEvents events.
func recordAll(t *testing.T, rounds int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.ppdb")
	r, err := perfdb.NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	r.SetHistogram(100, 50*sim.Millisecond)
	r.SetMeta("program", "small-messages")
	r.SetMeta("fault-log", "one\ntwo")
	f := resource.WholeProgram()
	events := []session.Event{
		{Kind: session.EvEnable, Metric: "msg_bytes_sent", Focus: f},
		{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p0", Time: 1}},
		{Kind: session.EvSamples, Samples: []datasource.Sample{{Metric: "msg_bytes_sent", Focus: f, Proc: "p0", Time: 2, Delta: 5}}},
		{Kind: session.EvShard, Shard: trace.Shard{Daemon: "paradynd@node0", Proc: "p0", Node: "node0"}},
		{Kind: session.EvBarrier},
		{Kind: session.EvStale, Update: datasource.Update{Daemon: "paradynd@node1", Time: sim.Time(3 * sim.Second)}},
		{Kind: session.EvUndelivered, Proc: "p1", N: 7},
	}
	for i := 0; i < rounds; i++ {
		for _, ev := range events {
			r.Record(ev)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const magicLen = 6 // "PPDBA2"

// chunk is the recorder's flush granularity; truncRounds rounds of the seven
// kinds in allKinds fill three event chunks and start a fourth.
const (
	chunk       = perfdb.DefaultFlushEvents
	truncRounds = 3*chunk/7 + 1
)

// frame builds one PPDBA1 chunk: [kind][len][CRC32-IEEE][payload].
func frame(kind byte, payload []byte) []byte {
	out := make([]byte, 9, 9+len(payload))
	out[0] = kind
	binary.BigEndian.PutUint32(out[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[5:9], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// chunkEnds returns the offset just past each chunk of a complete archive.
func chunkEnds(t *testing.T, full []byte) []int {
	t.Helper()
	var ends []int
	for off := magicLen; off < len(full); {
		if off+9 > len(full) {
			t.Fatalf("archive ends inside a chunk frame at %d", off)
		}
		off += 9 + int(binary.BigEndian.Uint32(full[off+1:off+5]))
		ends = append(ends, off)
	}
	return ends
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func TestArchiveRoundTrip(t *testing.T) {
	a, err := perfdb.ReadArchive(bytes.NewReader(recordAll(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Header.Version != session.Version || a.Header.NumBins != 100 || a.Header.BinWidth != 50*sim.Millisecond {
		t.Errorf("header = %+v", a.Header)
	}
	if a.Header.Meta["program"] != "small-messages" || a.Header.Meta["fault-log"] != "one\ntwo" {
		t.Errorf("meta = %+v", a.Header)
	}
	if len(a.Events) != len(allKinds) || a.Header.NumEvents != len(allKinds) {
		t.Fatalf("events = %d (header says %d), want %d", len(a.Events), a.Header.NumEvents, len(allKinds))
	}
	for i, k := range allKinds {
		if a.Events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, a.Events[i].Kind, k)
		}
	}
	// A loaded batch is kept packed; it decodes to what was recorded.
	if a.Events[2].Batch == nil || a.Events[2].Samples != nil {
		t.Fatalf("loaded sample event %+v, want its batch kept packed", a.Events[2])
	}
	if got := decoded(t, a.Events[2].Batch); got[0].Delta != 5 {
		t.Errorf("sample round-trip: %+v", got[0])
	}
	if a.Events[3].Shard.Daemon != "paradynd@node0" || a.Events[5].Update.Time != sim.Time(3*sim.Second) || a.Events[5].Update.Daemon != "paradynd@node1" || a.Events[6].N != 7 {
		t.Errorf("shard/stale/undelivered round-trip: %+v %+v %+v", a.Events[3], a.Events[5], a.Events[6])
	}
}

// Every workload builds Events by the thousand — the benchmark harness's
// set-up appends 6 000 before any workload runs — so the struct's size is paid
// everywhere: 8 bytes more measured +0.79 MB of p2p-flood's allocations
// (26.51 to 27.30 MB, +3.0%), a workload that never loads an archive. A stale
// verdict rides in Update and a kept batch is one pointer to keep it at most
// the 424 bytes it had before batches were kept packed.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(session.Event{}); n > 424 {
		t.Errorf("session.Event is %d bytes; want at most 424", n)
	}
}

// decoded returns a kept batch decoded into Samples.
func decoded(t *testing.T, b *session.PackedBatch) []datasource.Sample {
	t.Helper()
	out, err := new(session.Unpacker).UnpackSamplesInto(nil, b.Data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecordCopiesSampleBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ppdb")
	r, err := perfdb.NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	batch := []datasource.Sample{{Metric: "m", Proc: "p0", Delta: 1}}
	r.Record(session.Event{Kind: session.EvSamples, Samples: batch})
	batch[0].Delta = 99 // caller reuses its buffer before the chunk flushes
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := perfdb.LoadAny(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := decoded(t, a.Events[0].Batch)[0].Delta; got != 1 {
		t.Errorf("recorded delta = %v; recorder aliased the caller's batch", got)
	}
}

func TestArchiveRobustness(t *testing.T) {
	full := recordAll(t, 1)
	magic := full[:magicLen]
	ends := chunkEnds(t, full)
	header, rest := full[magicLen:ends[0]], full[ends[0]:]

	// A header record (no Meta) of version 42.
	future := binary.AppendVarint([]byte{0, 0}, 42)
	future = append(future, 0, 0, 0, 0)

	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"empty file", nil, "not a pperf session archive"},
		{"short magic", full[:3], "not a pperf session archive"},
		{"bad magic", cat([]byte("NOTPPA"), full[magicLen:]), "bad magic"},
		{"retired v1 magic", cat([]byte("PPARCH"), full[magicLen:]), "v1 PPARCH archive format retired"},
		{"retired PPDBA1 magic", cat([]byte("PPDBA1"), full[magicLen:]), "PPDBA1 archive format retired"},
		{"header cut mid-gob", full[:magicLen+9+4], "truncated before its header chunk"},
		{"garbage header", cat(magic, frame('H', []byte{0xde, 0xad, 0xbe, 0xef})), "corrupt archive header"},
		{"future version", cat(magic, frame('H', future)), "version 42"},
		{"duplicate header", cat(magic, header, header, rest), "duplicate header chunk"},
		{"events before header", cat(magic, rest), "events before the header chunk"},
		{"trailing garbage", cat(full, []byte{1, 2, 3}), "data beyond the trailer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.ppdb")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			// Both entry points must fail descriptively, never panic.
			_, readErr := perfdb.ReadArchive(bytes.NewReader(tc.data))
			_, loadErr := perfdb.LoadAny(path)
			for _, err := range []error{readErr, loadErr} {
				if err == nil {
					t.Fatalf("accepted %s", tc.name)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("err = %q, want substring %q", err, tc.wantErr)
				}
				if retired := errors.Is(err, perfdb.ErrRetiredFormat); retired != strings.HasPrefix(tc.name, "retired") {
					t.Errorf("errors.Is(err, ErrRetiredFormat) = %v for %s", retired, tc.name)
				}
			}
		})
	}
}

// TestTruncatedMidEvent verifies that a stream cut in the middle of an
// event chunk still loads: the complete chunks before it are kept and the
// archive is flagged Truncated (the front end died mid-run; the prefix is a
// faithful, if shorter, session).
func TestTruncatedMidEvent(t *testing.T) {
	full := recordAll(t, truncRounds) // header, four event chunks, trailer
	ends := chunkEnds(t, full)
	a, err := perfdb.ReadArchive(bytes.NewReader(full[:ends[2]+5])) // inside the third event chunk
	if err != nil {
		t.Fatalf("mid-event truncation refused: %v", err)
	}
	if !a.Truncated {
		t.Error("archive not flagged Truncated")
	}
	if len(a.Events) != 2*chunk {
		t.Fatalf("events = %d, want the %d in the two complete chunks", len(a.Events), 2*chunk)
	}
	for i, ev := range a.Events {
		if ev.Kind != allKinds[i%len(allKinds)] {
			t.Fatalf("event %d kind = %v, want %v", i, ev.Kind, allKinds[i%len(allKinds)])
		}
	}
	want := fmt.Sprintf("[replay truncated after %d events]", 2*chunk)
	if note := a.TruncationNote(); note != want {
		t.Errorf("TruncationNote() = %q, want %q", note, want)
	}
}

// TestTruncationAtEventBoundary covers the cut no framing error reveals:
// the file ends cleanly between two chunks. The missing trailer catches it,
// and the archive loads as a flagged-truncated prefix.
func TestTruncationAtEventBoundary(t *testing.T) {
	full := recordAll(t, truncRounds)
	ends := chunkEnds(t, full)
	got, err := perfdb.ReadArchive(bytes.NewReader(full[:ends[3]])) // header + three event chunks
	if err != nil {
		t.Fatalf("boundary truncation refused: %v", err)
	}
	if !got.Truncated {
		t.Error("archive not flagged Truncated")
	}
	if len(got.Events) != 3*chunk {
		t.Errorf("events = %d, want %d", len(got.Events), 3*chunk)
	}
	// A complete archive must NOT be flagged.
	whole, err := perfdb.ReadArchive(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if whole.Truncated || whole.TruncationNote() != "" {
		t.Errorf("complete archive flagged truncated (note %q)", whole.TruncationNote())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := perfdb.LoadAny(filepath.Join(t.TempDir(), "absent.ppdb")); !os.IsNotExist(err) {
		t.Errorf("err = %v, want not-exist", err)
	}
}
