package perfdb

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
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
		err := s.eventsChunk(payload, func(ev *session.Event) {
			e := *ev
			if e.Shard != nil { // the scan's own scratch, like s.samples
				sh := *e.Shard
				e.Shard = &sh
			}
			out, s.samples = append(out, e), nil
		})
		if err != nil {
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
	if err := cw.writeHeader(chunkHeader, src.Header, 0, 0); err != nil {
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
	// The read keeps its batches packed; decoded, they are what a read
	// without a table decodes.
	if want := eventsChunkByChunk(t, buf.Bytes()); !reflect.DeepEqual(materialised(got).Events, want) {
		t.Fatal("an archive read through the string table differs from the same archive read without one")
	}
	archivesEquivalent(t, src, got)

	// Every kept batch of the whole read resolves a name to the same bytes
	// in memory.
	where := map[string]*byte{}
	for _, ev := range got.Events {
		if ev.Batch == nil {
			continue
		}
		for _, s := range ev.Batch.Dictionary().Strs {
			if s == "" {
				continue
			}
			if p, ok := where[s]; ok && p != unsafe.StringData(s) {
				t.Fatalf("%q decoded into two places", s)
			}
			where[s] = unsafe.StringData(s)
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
	verify(small) // grows the spare scratch
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

// mixedFile is samplesOnlyFile with the other event kinds a recording holds
// between its batches: an enable, an update and a barrier every fourth batch,
// over the same few names.
func mixedFile(t *testing.T, nEvents int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mixed.ppdb")
	rec, err := NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetHistogram(100, 50*sim.Millisecond)
	whole := resource.WholeProgram()
	batch := make([]datasource.Sample, 40)
	for i := 0; i < nEvents; {
		at := sim.Time(i) * sim.Time(sim.Millisecond)
		if i%7 == 0 {
			rec.Record(session.Event{Kind: session.EvEnable, Metric: "cpu", Focus: whole})
			rec.Record(session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpHeartbeat, Daemon: "paradynd@node0", Time: at}})
			rec.Record(session.Event{Kind: session.EvBarrier})
			i += 3
			continue
		}
		for j := range batch {
			batch[j] = datasource.Sample{Metric: "cpu", Focus: whole, Proc: "app{0}", Time: at + sim.Time(j), Delta: float64(j), Value: float64(i)}
		}
		rec.Record(session.Event{Kind: session.EvSamples, Samples: batch})
		i++
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// objectsAllocatedBy reports the heap objects fn allocates. The collector is
// off meanwhile: the sync.Pools of fmt and the like refill after every
// collection, which would make the count depend on when one ran.
func objectsAllocatedBy(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Reading a chunk costs no objects of its own: not a decoder, not a type
// table, not a buffer. Verifying twice the chunks allocates about the same,
// and collecting allocates, beyond what a shorter file costs, only its event
// list, the two slabs each chunk keeps its sample batches in and the blocks,
// doubling, that the read keeps their dictionaries in.
func TestStreamingReadObjectBudget(t *testing.T) {
	small := mixedFile(t, 4*DefaultFlushEvents)
	large := mixedFile(t, 8*DefaultFlushEvents)
	verify := func(path string) uint64 {
		return objectsAllocatedBy(func() {
			if in, err := verifyStaged(path, AddMeta{}); err != nil || in.truncated {
				t.Fatalf("verify %s: %+v, %v", path, in, err)
			}
		})
	}
	verify(large) // grows the spare scratch
	if a, b := verify(small), verify(large); float64(b) > 1.1*float64(a) {
		t.Errorf("verifying 8 chunks allocates %d objects against %d for 4: a chunk should cost none", b, a)
	}

	collect := func(path string) (objects uint64, events int) {
		objects = objectsAllocatedBy(func() {
			a, err := LoadAny(path)
			if err != nil {
				t.Fatal(err)
			}
			events = len(a.Events)
		})
		return objects, events
	}
	// The objects an append loop allocates growing the events slice to n.
	slices := func(n int) (grows uint64) {
		var evs []session.Event
		for range n {
			if len(evs) == cap(evs) {
				grows++
			}
			evs = append(evs, session.Event{})
		}
		return grows
	}
	chunks := func(path string) int {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		events, _ := eventChunks(data)
		return len(events)
	}
	collect(large)
	smallObjects, smallEvents := collect(small)
	largeObjects, largeEvents := collect(large)
	returned := slices(largeEvents) - slices(smallEvents)
	if extra, more := int64(largeObjects-smallObjects)-int64(returned), chunks(large)-chunks(small); extra > int64(3*more) {
		t.Errorf("collecting %d more chunks allocates %d objects against %d: %d more than the event-slice growth of %d, want at most three per chunk (its batches' bytes, records and dictionaries)",
			more, largeObjects, smallObjects, extra, returned)
	}
}

// A frame header is not believed before its bytes arrive: a 19-byte file
// whose header chunk declares a gigabyte is refused, collected or verified,
// for the cost of a small buffer.
func TestDeclaredPayloadIsNotPreallocated(t *testing.T) {
	data := append(append([]byte(nil), chunkMagic...), chunkHeader, 0x3f, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'r', 'e', 'c', '!')
	path := filepath.Join(t.TempDir(), "short.ppdb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "perfdb: archive truncated before its header chunk"
	for name, read := range map[string]func() error{
		"collect": func() error { _, err := LoadAny(path); return err },
		"verify":  func() error { _, err := verifyStaged(path, AddMeta{}); return err },
	} {
		var err error
		if n := bytesAllocatedBy(func() { err = read() }); n >= 1<<20 || err == nil || err.Error() != want {
			t.Errorf("%s: %d bytes allocated, err %v; want under 1 MB and %q", name, n, err, want)
		}
	}
}

// The event list LoadAny sizes from the frame headers is only a capacity, and
// a forged count cannot make it large: a frame that declares more events than
// it has payload bytes, or that runs past the end of the file, ends the count
// before it adds anything. Each file below would cost 64 Ki events (27 MB) if
// its count were believed; each fails exactly as it did before the count was
// taken, within the budget of a read that allocates nothing for its events:
// at most the scan's first 64 KiB payload buffer, when no spare one is left.
func TestForgedEventCountIsBounded(t *testing.T) {
	const forged = 1 << 16
	head := append(append([]byte(nil), chunkMagic...), testFrame(chunkHeader, rawHeader(nil, session.Version, nil))...)
	overclaim := append(binary.AppendUvarint(nil, forged), make([]byte, 8)...)
	pastEOF := testFrame(chunkEvents, append(binary.AppendUvarint(nil, forged), make([]byte, 2*forged)...))
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"more events than bytes", append(head, testFrame(chunkEvents, overclaim)...),
			"perfdb: corrupt events chunk: 65536 events in 11 bytes"},
		// Cut where its header would be: today that is a file truncated
		// before its header chunk.
		{"frame past EOF", append(append([]byte(nil), chunkMagic...), pastEOF[:64]...),
			"perfdb: archive truncated before its header chunk"},
	} {
		path := filepath.Join(t.TempDir(), "forged.ppdb")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if n := bytesAllocatedBy(func() { _, err = LoadAny(path) }); n > 128<<10 || err == nil || err.Error() != c.want {
			t.Errorf("%s: %d bytes allocated, err %v; want at most 128 KiB and %q", c.name, n, err, c.want)
		}
	}
}

// Scans running at once never see each other's scratch: one takes the spare
// set, the others grow their own, and every read of every archive decodes to
// what a lone read decoded.
func TestConcurrentScansShareNoScratch(t *testing.T) {
	var files [4][]byte
	var want [4]*session.Archive
	for i := range files {
		var buf bytes.Buffer
		if err := WriteArchive(&buf, finiteArchive(rand.New(rand.NewSource(int64(20+i))), 300+200*i)); err != nil {
			t.Fatal(err)
		}
		files[i] = buf.Bytes()
		a, err := ReadArchive(bytes.NewReader(files[i]))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 20 {
				i := (g + n) % len(files)
				if n%2 == 1 {
					if s, err := scanArchive(bytes.NewReader(files[i]), nil); err != nil || s.events != len(want[i].Events) {
						t.Errorf("verifying archive %d: %v", i, err)
					}
					continue
				}
				if got, err := ReadArchive(bytes.NewReader(files[i])); err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("archive %d read beside other scans differs from its lone read (err %v)", i, err)
				}
			}
		}()
	}
	wg.Wait()
}
