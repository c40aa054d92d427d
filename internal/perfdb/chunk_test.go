package perfdb

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// syntheticArchive builds an archive exercising every event kind.
func syntheticArchive(rng *rand.Rand, nEvents int) *session.Archive {
	a := &session.Archive{Header: session.Header{
		Version:  session.Version,
		NumBins:  100,
		BinWidth: 50 * sim.Millisecond,
		Meta:     map[string]string{"program": "synthetic", "seed": "1"},
		Extra:    []byte("opaque harness payload"),
	}}
	focus := resource.Focus{CodePath: "/Code", MachinePath: "/Machine", SyncPath: "/SyncObject"}
	a.Events = append(a.Events,
		session.Event{Kind: session.EvEnable, Metric: "m1", Focus: focus},
		session.Event{Kind: session.EvEnable, Metric: "m2", Focus: focus, Err: "daemon refused"},
	)
	for len(a.Events) < nEvents {
		switch rng.Intn(6) {
		case 0, 1, 2:
			a.Events = append(a.Events, session.Event{Kind: session.EvSamples, Samples: randomBatch(rng, 1+rng.Intn(16))})
		case 3:
			a.Events = append(a.Events, session.Event{Kind: session.EvUpdate, Update: datasource.Update{
				Kind: datasource.UpAddResource, Path: "/Machine/node0/p{0}", Time: sim.Time(rng.Intn(1e9)), Daemon: "paradynd@node0",
			}})
		case 4:
			a.Events = append(a.Events, session.Event{Kind: session.EvBarrier})
		default:
			a.Events = append(a.Events, session.Event{Kind: session.EvGap, Gap: datasource.Gap{Node: "node1", From: 1, To: 2}})
		}
	}
	a.Header.NumEvents = len(a.Events)
	return a
}

// archivesEquivalent compares two archives field by field, comparing
// sample batches bit-exactly (DeepEqual rejects NaN) and treating nil and
// empty batches as equal.
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
			if len(we.Samples) != len(ge.Samples) {
				t.Fatalf("event %d: batch size %d -> %d", i, len(we.Samples), len(ge.Samples))
			}
			for j := range we.Samples {
				if !sampleEqual(we.Samples[j], ge.Samples[j]) {
					t.Fatalf("event %d sample %d: %+v -> %+v", i, j, we.Samples[j], ge.Samples[j])
				}
			}
			continue
		}
		we.Samples, ge.Samples = nil, nil
		if !reflect.DeepEqual(we, ge) {
			t.Fatalf("event %d mismatch:\nwant %+v\ngot  %+v", i, we, ge)
		}
	}
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
	// inside the header chunk or magic), never panic or misdecode.
	seenTruncated := false
	for cut := 0; cut < len(full)-1; cut += 257 {
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
		wantHdr := provisionalHeader(a.Header)
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

// replayEventsInto re-records an event stream through the Sink interface.
func replayEventsInto(rec session.Sink, events []session.Event) {
	for _, ev := range events {
		rec.Record(ev)
	}
}
