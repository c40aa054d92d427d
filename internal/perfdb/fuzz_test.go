package perfdb

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/packed"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// FuzzChunkDecoder: the chunk cursor over arbitrary bytes must return an
// archive or an error — never panic, never allocate unboundedly from a
// corrupt length field — and its two uses must agree on every input: the
// collecting ReadArchive and the streaming pass of the verify step and
// OpenRun both fail with the same error, or both succeed with the same
// header, event count and truncated flag. What loads replays: a ReplaySource
// over it, with every recorded pair enabled, syncs to its end and drains
// without a panic, so a batch the load kept packed is one it checked. What
// decodes round-trips: WriteArchive re-encodes it to bytes that decode to
// that header, event count and truncated flag again — a cut file to a file
// without a trailer — and to every sample batch's bytes as they were.
func FuzzChunkDecoder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 40, 600} {
		var buf bytes.Buffer
		if err := WriteArchive(&buf, syntheticArchive(rng, n)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Seed some deliberate corruptions so coverage starts past the
		// magic check.
		mut := append([]byte(nil), buf.Bytes()...)
		mut[10] ^= 0xff
		f.Add(mut)
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	// Every event kind, traced, under Meta; the bare magic; and the retired
	// formats, which must be refused: the PPDBA1 magic in front of a current
	// archive, the two PPDBA1 fixtures, the v1 magic; and an archive of
	// event-schema version 1.
	var every bytes.Buffer
	if err := WriteArchive(&every, compatArchive()); err != nil {
		f.Fatal(err)
	}
	f.Add(every.Bytes())
	f.Add([]byte("PPDBA2"))
	f.Add([]byte{})
	f.Add(append([]byte("PPDBA1"), every.Bytes()[6:]...))
	for _, path := range []string{compatFixture, gobRestFixture} {
		if old, err := os.ReadFile(path); err == nil {
			f.Add(old)
		}
	}
	f.Add([]byte("PPARCH\x1f\xff\x81\x03\x01\x01\x06Header")) // retired v1 magic + a gob prefix
	if old, err := os.ReadFile(schemaV1Fixture); err == nil {
		f.Add(old)
	}
	// A sample batch behind a good CRC whose record names dictionary entry 5
	// of 1: the load refuses it, so no replay ever decodes it.
	f.Add(badIndexArchive(f))
	// One chunk whose batches repeat a dictionary, one of them over another
	// sequence of its entries; and one whose two dictionaries have the same
	// length but different entries.
	p0, p1 := datasource.Sample{Metric: "m", Proc: "p0", Delta: 1}, datasource.Sample{Metric: "m", Proc: "p1", Delta: 2}
	f.Add(batchesArchive(f, []datasource.Sample{p0, p1}, []datasource.Sample{p0, p1}, []datasource.Sample{p0, p1, p0}))
	f.Add(batchesArchive(f, []datasource.Sample{p0}, []datasource.Sample{p1}))
	// One chunk that holds two shard events around a sample batch: a load
	// keeps the three blobs in one slab and the two shards in another.
	shards := &session.Archive{Header: session.Header{Version: session.Version, NumBins: 100, BinWidth: 50 * sim.Millisecond, NumEvents: 3},
		Events: []session.Event{
			{Kind: session.EvShard, Shard: randomShard(rng, 3)},
			{Kind: session.EvSamples, Samples: []datasource.Sample{p0, p1}},
			{Kind: session.EvShard, Shard: randomShard(rng, 2)},
		}}
	var three bytes.Buffer
	if err := WriteArchive(&three, shards); err != nil {
		f.Fatal(err)
	}
	f.Add(three.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := readBothWays(t, data)
		if err != nil {
			return
		}
		replayAll(a)
		var buf bytes.Buffer
		if err := WriteArchive(&buf, a); err != nil {
			t.Fatalf("re-encoding a decoded archive: %v", err)
		}
		b, err := ReadArchive(bytes.NewReader(buf.Bytes()))
		if err != nil || len(b.Events) != len(a.Events) || b.Truncated != a.Truncated || !reflect.DeepEqual(b.Header, a.Header) {
			t.Fatalf("%d events (truncated %v) under %+v re-encode to %+v, %v", len(a.Events), a.Truncated, a.Header, b, err)
		}
		for i := range a.Events {
			if x, y := a.Events[i].Batch, b.Events[i].Batch; (x == nil) != (y == nil) || x != nil && !bytes.Equal(x.Data, y.Data) {
				t.Fatalf("event %d: sample batch %+v re-encodes to %+v", i, x, y)
			}
			if x, y := a.Events[i].Shard, b.Events[i].Shard; (x == nil) != (y == nil) || x != nil && !bytes.Equal(x.Packed(), y.Packed()) {
				t.Fatalf("event %d: shard %+v re-encodes to %+v", i, x, y)
			}
		}
	})
}

// replayAll replays a loaded archive the way pperfmark does, enabling every
// pair the archive recorded an enable for, then syncing barrier by barrier
// to the end and draining the tail.
func replayAll(a *session.Archive) {
	rs := session.NewReplaySource(a)
	for i := range a.Events {
		if ev := &a.Events[i]; ev.Kind == session.EvEnable {
			rs.EnableMetric(ev.Metric, ev.Focus)
		}
	}
	_, barriers := a.Replayable()
	for range barriers + 1 {
		rs.Sync()
	}
	rs.Drain()
}

// batchesArchive is an archive of one event chunk: an enable of metric m's
// whole-program series, then the batches, each behind a read barrier.
func batchesArchive(t testing.TB, batches ...[]datasource.Sample) []byte {
	t.Helper()
	a := &session.Archive{Header: session.Header{NumBins: 100, BinWidth: 50 * sim.Millisecond},
		Events: []session.Event{{Kind: session.EvEnable, Metric: "m"}}}
	for i, b := range batches {
		for j := range b {
			b[j].Time = sim.Time(sim.Duration(i+1) * 10 * sim.Millisecond)
		}
		a.Events = append(a.Events, session.Event{Kind: session.EvBarrier}, session.Event{Kind: session.EvSamples, Samples: b})
	}
	a.Header.NumEvents = len(a.Events)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// badIndexArchive is a current archive whose one event chunk holds a sample
// batch, under a good CRC, whose record names dictionary entry 5 of 1.
func badIndexArchive(t testing.TB) []byte {
	t.Helper()
	var hw packed.Writer
	header := appendHeader(nil, &hw, session.Header{Version: session.Version, NumBins: 100, BinWidth: 50 * sim.Millisecond}, 0)
	// One sample, dictionary {"m"}; indexes 0 0 0 0 5, then a zero time,
	// delta and value.
	batch := []byte{1, 1, 1, 'm', 0, 0, 0, 0, 5, 0, 0, 0}
	data := append([]byte(nil), chunkMagic...)
	data = append(data, testFrame(chunkHeader, header)...)
	return append(data, testFrame(chunkEvents, eventsPayload([]byte{flagSamples}, 1, [][]byte{batch}, nil))...)
}
