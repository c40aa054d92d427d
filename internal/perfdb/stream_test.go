package perfdb

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"pperf/internal/session"
	"pperf/internal/sim"
)

// TestStreamRecorderBoundedMemory: however long the run, the streaming
// recorder holds at most one chunk of events in memory.
func TestStreamRecorderBoundedMemory(t *testing.T) {
	const chunk = 64
	path := filepath.Join(t.TempDir(), "run.ppdb")
	rec, err := NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.w.perChunk = chunk
	rec.SetHistogram(100, 50*sim.Millisecond)

	rng := rand.New(rand.NewSource(11))
	src := syntheticArchive(rng, 50_000)
	replayEventsInto(rec, src.Events)
	if got := rec.PeakBufferedEvents(); got > chunk {
		t.Errorf("peak buffered events %d exceeds chunk size %d over a %d-event run", got, chunk, len(src.Events))
	}
	rec.SetMeta("program", "synthetic")
	rec.SetMeta("fault-log", "one\ntwo")
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.EventCount() != len(src.Events) {
		t.Errorf("recorded %d of %d events", rec.EventCount(), len(src.Events))
	}

	got, err := LoadAny(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated {
		t.Fatal("closed recording loaded as truncated")
	}
	want := &session.Archive{Header: got.Header, Events: src.Events}
	archivesEquivalent(t, want, got)
	if got.Header.Meta["program"] != "synthetic" || got.Header.Meta["fault-log"] != "one\ntwo" {
		t.Errorf("finalized header lost Meta: %+v", got.Header)
	}
}

// TestStreamRecorderAbort verifies an aborted recording leaves no file
// behind (the temp file is removed, the final path never appears).
func TestStreamRecorderAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ppdb")
	rec, err := NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetHistogram(0, 0)
	rec.Record(session.Event{Kind: session.EvBarrier})
	rec.Abort()
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := LoadAny(p); err == nil {
			t.Errorf("%s exists after Abort", p)
		}
	}
}

// TestStreamRecorderEmptyRun: a recording that captured zero events still
// closes into a loadable archive (header chunk + trailer).
func TestStreamRecorderEmptyRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ppdb")
	rec, err := NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetHistogram(10, 50*sim.Millisecond)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := LoadAny(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != 0 || a.Truncated {
		t.Errorf("empty recording loaded as %d events truncated=%v", len(a.Events), a.Truncated)
	}
}

// A recorder outlives its recording — callers read PeakBufferedEvents after
// Close or Store.Commit — so finishing it, or aborting it, hands the pending
// chunk's buffers to spare, emptied, for the next writer, instead of keeping
// them at their high-water size. A standalone recorder and a store's alike.
func TestClosedRecorderReleasesItsBuffers(t *testing.T) {
	held := func(c *pendingChunk) int {
		return cap(c.flags) + cap(c.packed) + cap(c.rest) + cap(c.section) + cap(c.blob)
	}
	for _, end := range []string{"close", "commit", "abort"} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var rec *StreamRecorder
		if end == "close" {
			rec, err = NewStreamRecorder(filepath.Join(t.TempDir(), "s.ppdb"))
		} else {
			rec, err = st.NewRecorder()
		}
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		replayEventsInto(rec, syntheticArchive(rng, DefaultFlushEvents+100).Events)
		if held(&rec.w.buf) == 0 {
			t.Fatal("the pending chunk holds no buffer mid-recording")
		}
		switch end {
		case "close":
			err = rec.Close()
		case "commit":
			_, _, err = st.Commit(rec, AddMeta{})
		case "abort":
			st.Discard(rec)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := held(&rec.w.buf); n != 0 {
			t.Errorf("%s: the finished writer's pending chunk still holds %d elements of capacity", end, n)
		}
		spare.Lock()
		c := spare.chunk
		spare.Unlock()
		if held(&c) == 0 || len(c.flags)+len(c.packed)+len(c.rest) != 0 {
			t.Errorf("%s: spare holds %d elements of capacity, %d events: want the writer's buffers, emptied", end, held(&c), len(c.flags))
		}
	}
}

// --- throughput benchmarks -------------------------------------------------

// BenchmarkChunkWrite measures streaming-encode throughput.
func BenchmarkChunkWrite(b *testing.B) {
	a := syntheticArchive(rand.New(rand.NewSource(2)), 2000)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteArchive(&buf, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunkRead measures decode throughput.
func BenchmarkChunkRead(b *testing.B) {
	a := syntheticArchive(rand.New(rand.NewSource(2)), 2000)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadArchive(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackSamples measures the delta codec alone.
func BenchmarkPackSamples(b *testing.B) {
	batch := randomBatch(rand.New(rand.NewSource(2)), 512)
	packed := packSamples(batch)
	b.SetBytes(int64(len(packed)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unpackSamples(packSamples(batch)); err != nil {
			b.Fatal(err)
		}
	}
}
