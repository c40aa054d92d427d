package perfdb

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// finiteArchive is syntheticArchive with its NaN samples zeroed, so that
// reflect.DeepEqual can compare two decodes of it.
func finiteArchive(rng *rand.Rand, nEvents int) *session.Archive {
	a := syntheticArchive(rng, nEvents)
	for _, ev := range a.Events {
		for i := range ev.Samples {
			if sm := &ev.Samples[i]; math.IsNaN(sm.Delta) || math.IsNaN(sm.Value) {
				sm.Delta, sm.Value = 0, 0
			}
		}
	}
	return a
}

// eventsChunkByChunk decodes an archive's event chunks the way the reader
// did before it owned a string table: nothing is shared from one chunk to
// the next.
func eventsChunkByChunk(t *testing.T, data []byte) []session.Event {
	t.Helper()
	var out []session.Event
	eachEventsChunk(data, func(payload []byte) {
		s := new(archiveScan) // a fresh string table
		if err := s.eventsChunk(payload, func(ev *session.Event) { out, s.samples = append(out, *ev), nil }); err != nil {
			t.Fatal(err)
		}
	})
	return out
}

// Reading through the one string table changes where the strings live and
// nothing about what they say.
func TestInternedReadEqualsUnsharedRead(t *testing.T) {
	var buf bytes.Buffer
	cw, err := newChunkWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cw.perChunk = 16 // many chunks, so the table is carried across them
	src := finiteArchive(rand.New(rand.NewSource(5)), 400)
	if err := cw.writeHeaderChunk(provisionalHeader(src.Header)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range src.Events {
		if err := cw.add(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.close(src.Header); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := eventsChunkByChunk(t, buf.Bytes()); !reflect.DeepEqual(got.Events, want) {
		t.Fatal("an archive read through the string table differs from the same archive read without one")
	}
	archivesEquivalent(t, src, got)

	// Every sample of the whole read that names a metric names it with the
	// same bytes in memory.
	where := map[string]*byte{}
	for _, ev := range got.Events {
		for _, sm := range ev.Samples {
			for _, s := range []string{sm.Metric, sm.Proc, sm.Focus.CodePath, sm.Focus.MachinePath, sm.Focus.SyncPath} {
				if s == "" {
					continue
				}
				if p, ok := where[s]; ok && p != unsafe.StringData(s) {
					t.Fatalf("%q decoded into two places", s)
				}
				where[s] = unsafe.StringData(s)
			}
		}
	}
	if len(where) == 0 {
		t.Fatal("archive held no named samples")
	}
}

// The allocation budgets of the codec in steady state: a batch whose
// strings the reader has met costs its sample slice and nothing else; a
// batch packed through a warmed writer costs nothing at all until its chunk
// flushes.
func TestCodecAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	first, second := packSamples(randomBatch(rng, 24)), packSamples(randomBatch(rng, 24))
	var up session.Unpacker
	for _, b := range [][]byte{first, second} {
		if _, err := up.UnpackSamplesInto(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	var batch []datasource.Sample
	if n := testing.AllocsPerRun(100, func() { batch, _ = up.UnpackSamplesInto(nil, second) }); n != 1 || len(batch) != 24 {
		t.Errorf("unpacking a batch of known strings: %v allocs for %d samples, want 1 (the batch slice)", n, len(batch))
	}

	cw, err := newChunkWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cw.perChunk = 64
	ev := session.Event{Kind: session.EvSamples, Samples: randomBatch(rng, 24)}
	for i := 0; i < 64; i++ { // one full chunk warms every buffer
		if err := cw.add(ev); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, func() { cw.add(ev) }); n != 0 { // 51 appends: no flush inside
		t.Errorf("packing a batch through a warmed writer: %v allocs, want 0", n)
	}
	if cw.peak != 64 || cw.events != 64+51 {
		t.Errorf("writer buffered %d events at peak over %d appends, want 64 over 115", cw.peak, cw.events)
	}
}

// samplesOnlyFile writes an archive of nEvents 160-sample batches over one
// enabled pair, DefaultFlushEvents to the chunk, and returns its path.
func samplesOnlyFile(t *testing.T, nEvents int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "samples.ppdb")
	rec, err := NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetHistogram(100, 50*sim.Millisecond)
	whole := resource.WholeProgram()
	rec.Record(session.Event{Kind: session.EvEnable, Metric: "cpu", Focus: whole})
	batch := make([]datasource.Sample, 160)
	for i := 1; i < nEvents; i++ {
		for j := range batch {
			batch[j] = datasource.Sample{Metric: "cpu", Focus: whole, Proc: "app{0}", Time: sim.Time(i*len(batch)+j) * sim.Time(sim.Millisecond), Delta: float64(j), Value: float64(i)}
		}
		rec.Record(session.Event{Kind: session.EvSamples, Samples: batch})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// bytesAllocatedBy reports the heap bytes fn allocates.
func bytesAllocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The streaming consumers hold one chunk, not the file: verifying an archive
// of twice the chunks allocates about the same, and a fold's sample batches
// all land in the one scratch the first chunk grew.
func TestStreamingReadAllocationBudget(t *testing.T) {
	small, large := samplesOnlyFile(t, 4*DefaultFlushEvents), samplesOnlyFile(t, 8*DefaultFlushEvents)
	verify := func(path string) uint64 {
		return bytesAllocatedBy(func() {
			if in, err := verifyStaged(path, AddMeta{}); err != nil || in.truncated {
				t.Fatalf("verify %s: %+v, %v", path, in, err)
			}
		})
	}
	verify(small) // gob's type tables and the like are built once per process
	if a, b := verify(small), verify(large); float64(b) > 1.1*float64(a) {
		fi, _ := os.Stat(large)
		t.Errorf("verifying 8 chunks allocates %d bytes against %d for 4: the pass should cost a chunk, not the %d-byte file", b, a, fi.Size())
	}
	collect := bytesAllocatedBy(func() { LoadAny(large) })
	if v := verify(large); 10*v > collect {
		t.Errorf("verifying allocates %d bytes where collecting the archive allocates %d; want under a tenth", v, collect)
	}

	var scratch *datasource.Sample
	moved := 0
	_, err := scanFile(large, func(s *archiveScan) func(*session.Event) {
		return func(ev *session.Event) {
			if ev.Kind != session.EvSamples {
				return
			}
			if s.chunks > 1 && scratch != &ev.Samples[0] {
				moved++
			}
			scratch = &ev.Samples[0]
		}
	})
	if err != nil || moved != 0 {
		t.Errorf("after the first chunk %d sample batches were decoded into a new slice (err %v), want all of them in the one scratch", moved, err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.AddFile(large, AddMeta{})
	if err != nil {
		t.Fatal(err)
	}
	batchBytes := uint64(160 * unsafe.Sizeof(datasource.Sample{}))
	if got := bytesAllocatedBy(func() { st.OpenRun(m.ID) }); got > uint64(m.Events)*batchBytes/10 {
		t.Errorf("OpenRun of %d batches allocates %d bytes; a slice per batch alone would be %d", m.Events, got, uint64(m.Events)*batchBytes)
	}
}
