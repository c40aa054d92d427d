// Package perfdb is the multi-run performance experiment store: chunked
// streaming session archives whose sample batches and trace shards ride in
// session's packed forms under a per-chunk CRC32 (this file), a
// bounded-memory recorder the live front end writes through (stream.go), an
// on-disk run index (store.go), and a cross-run diff engine that compares
// stored runs with the paper's §5.2.1.3 confidence-interval significance
// test (diff.go). See PERFDB.md.
package perfdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sort"

	"pperf/internal/datasource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// Chunked archive format, version 1:
//
//	6 bytes  magic "PPDBA1"
//	chunk 'H'  provisional header (gob session.Header: version + histogram
//	           config — everything known before the first event)
//	chunk 'E'* event chunks (packed sample batches and trace shards + gob rest)
//	chunk 'T'  trailer (gob: final session.Header with Meta/Extra,
//	           NumEvents, NumChunks)
//
// Every chunk is framed [1 kind][uint32 payload len][uint32 CRC32-IEEE of
// payload][payload], so corruption is detected per chunk instead of
// garbage-decoded, and a file cut mid-write loads as a Truncated archive
// holding the complete-chunk prefix (the trailer doubles as the
// completeness mark). The final header lives in the trailer because a
// *streaming* writer does not know Meta/Extra — the run description
// pperfmark stamps at the end of the run — until the recording finishes.
var chunkMagic = []byte("PPDBA1")

// retiredMagic is the flat v1 format's magic. Nothing writes it any more
// and nothing reads it; it is recognized only to tell the user what to do.
var retiredMagic = []byte("PPARCH")

// ErrRetiredFormat is returned for a v1 "PPARCH" archive.
var ErrRetiredFormat = errors.New("perfdb: v1 PPARCH archive format retired; re-record the run (-record / -db write PPDBA1)")

const (
	chunkHeader  = 'H'
	chunkEvents  = 'E'
	chunkTrailer = 'T'
)

// maxChunkPayload bounds a frame's declared payload so corrupt length
// fields cannot drive giant allocations.
const maxChunkPayload = 1 << 30

// headerWire is the on-disk form of session.Header. The Meta map rides
// as parallel sorted key/value slices because gob serializes maps in
// random iteration order — with it, encoding the same archive twice
// yields byte-identical files (content comparison and dedup work).
type headerWire struct {
	Version   int
	NumEvents int
	NumBins   int
	BinWidth  sim.Duration
	MetaKeys  []string
	MetaVals  []string
	Extra     []byte
}

func toWire(h session.Header) headerWire {
	w := headerWire{
		Version:   h.Version,
		NumEvents: h.NumEvents,
		NumBins:   h.NumBins,
		BinWidth:  h.BinWidth,
		Extra:     h.Extra,
	}
	for k := range h.Meta {
		w.MetaKeys = append(w.MetaKeys, k)
	}
	sort.Strings(w.MetaKeys)
	for _, k := range w.MetaKeys {
		w.MetaVals = append(w.MetaVals, h.Meta[k])
	}
	return w
}

func fromWire(w headerWire) (session.Header, error) {
	if len(w.MetaKeys) != len(w.MetaVals) {
		return session.Header{}, fmt.Errorf("perfdb: corrupt header: %d meta keys, %d values", len(w.MetaKeys), len(w.MetaVals))
	}
	h := session.Header{
		Version:   w.Version,
		NumEvents: w.NumEvents,
		NumBins:   w.NumBins,
		BinWidth:  w.BinWidth,
		Extra:     w.Extra,
	}
	if len(w.MetaKeys) > 0 {
		h.Meta = make(map[string]string, len(w.MetaKeys))
		for i, k := range w.MetaKeys {
			h.Meta[k] = w.MetaVals[i]
		}
	}
	return h, nil
}

// trailer is the 'T' chunk payload.
type trailer struct {
	Header    headerWire
	NumEvents int
	NumChunks int // event chunks written
}

// The flag byte an 'E' chunk holds per event: where the event's bytes are.
const (
	flagGob     = 0 // in the chunk's gob section
	flagSamples = 1 // the next packed blob, a sample batch
	flagShard   = 2 // the next packed blob, a trace shard
)

// maxPendingPacked is the byte bound of a pending chunk: once its packed
// blobs pass it the chunk is flushed, however few events that is. Sample
// batches never get near it (DefaultFlushEvents of them pack to well under
// 1 MiB); 512 full trace shards made chunks of tens of megabytes.
const maxPendingPacked = 4 << 20

// pendingChunk is an 'E' chunk being assembled: sample batches and trace
// shards ride as packed blobs, everything else as gob of session.Event (one
// encoder per chunk, so chunks stay independently decodable). A batch is
// packed the moment it is appended and a shard's bytes — packed where its
// ring was drained — are copied in, so the chunk never holds a caller's
// sample slice or shard.
//
// Payload layout:
//
//	uvarint nEvents
//	nEvents flag bytes, one per event
//	uvarint nPacked; per blob, in event order: uvarint len + bytes
//	remaining: gob of []session.Event (the flagGob events, in order)
//
// Archives written before shards were packed hold flags 0 and 1 only, their
// shards in the gob section; they load through the same decoder.
//
// Every buffer is kept from chunk to chunk: packed and rest grow by doubling,
// packed to maxPendingPacked plus the blob that crosses it, rest to the
// chunk's event bound. The gob section is encoded into the one gob buffer by
// a fresh encoder per chunk: each chunk carries its own type table.
type pendingChunk struct {
	flags   []byte          // one per event, in order
	nPacked int             // packed blobs among them
	packed  []byte          // the blobs, each behind its uvarint length
	rest    []session.Event // the gob-section events
	gob     bytes.Buffer    // rest, encoded at flush
	pk      session.Packer
	blob    []byte // one sample batch, packed, before its length is known
}

// add appends one event to a chunk that holds at most maxEvents.
func (c *pendingChunk) add(ev session.Event, maxEvents int) {
	var blob []byte
	switch ev.Kind {
	case session.EvSamples:
		c.flags = append(c.flags, flagSamples)
		c.blob = c.pk.PackSamples(c.blob[:0], ev.Samples)
		blob = c.blob
	case session.EvShard:
		c.flags = append(c.flags, flagShard)
		blob = ev.Shard.Packed()
	default:
		c.flags = append(c.flags, flagGob)
		c.rest = append(grow(c.rest, 1, maxEvents), ev)
		return
	}
	c.nPacked++
	c.packed = grow(c.packed, binary.MaxVarintLen64+len(blob), maxPendingPacked)
	c.packed = binary.AppendUvarint(c.packed, uint64(len(blob)))
	c.packed = append(c.packed, blob...)
}

// grow returns s with room for n more elements. Its capacity doubles, but not
// past limit unless those n need more.
func grow[S ~[]E, E any](s S, n, limit int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make(S, 0, max(min(2*cap(s), limit), len(s)+n)), s...)
}

// eventsChunk reverses chunkWriter.flush and visits the chunk's events in
// order, resolving packed strings through the scan's table. Corrupt input
// yields an error, never a panic.
func (s *archiveScan) eventsChunk(data []byte, visit func(*session.Event)) error {
	pos := 0
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("perfdb: corrupt events chunk: bad uvarint at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	nEvents, err := getU()
	if err != nil {
		return err
	}
	if nEvents > uint64(len(data)) {
		return fmt.Errorf("perfdb: corrupt events chunk: %d events in %d bytes", nEvents, len(data))
	}
	if uint64(len(data)-pos) < nEvents {
		return errors.New("perfdb: corrupt events chunk: flag bytes overrun input")
	}
	flags := data[pos : pos+int(nEvents)]
	pos += int(nEvents)
	wantPacked := 0
	for _, f := range flags {
		switch f {
		case flagGob:
		case flagSamples, flagShard:
			wantPacked++
		default:
			return fmt.Errorf("perfdb: corrupt events chunk: bad event flag %d", f)
		}
	}
	nPacked, err := getU()
	if err != nil {
		return err
	}
	if nPacked != uint64(wantPacked) {
		return fmt.Errorf("perfdb: corrupt events chunk: %d packed blobs, flags promise %d", nPacked, wantPacked)
	}
	blobs := s.blobs[:0]
	for i := 0; i < wantPacked; i++ {
		l, err := getU()
		if err != nil {
			return err
		}
		if l > uint64(len(data)-pos) {
			return fmt.Errorf("perfdb: corrupt events chunk: packed blob %d overruns input", i)
		}
		blobs = append(blobs, data[pos:pos+int(l)])
		pos += int(l)
	}
	s.blobs = blobs
	// A fresh slice per chunk: gob leaves the fields its stream omits (the
	// zero ones) as it found them.
	var rest []session.Event
	if err := gob.NewDecoder(bytes.NewReader(data[pos:])).Decode(&rest); err != nil {
		return fmt.Errorf("perfdb: corrupt events chunk: %v", err)
	}
	if nRest := len(flags) - wantPacked; len(rest) != nRest {
		return fmt.Errorf("perfdb: corrupt events chunk: %d gob events, flags promise %d", len(rest), nRest)
	}
	ev := &s.ev
	for _, f := range flags {
		switch f {
		case flagSamples:
			*ev = session.Event{Kind: session.EvSamples}
			ev.Samples, err = s.up.UnpackSamplesInto(s.samples, blobs[0])
			s.samples, blobs = ev.Samples, blobs[1:]
		case flagShard:
			*ev = session.Event{Kind: session.EvShard}
			if visit == nil {
				err = trace.VerifyShard(blobs[0]) // nothing kept
			} else {
				ev.Shard, err = trace.OpenShard(&s.up.Table, blobs[0])
			}
			blobs = blobs[1:]
		default:
			*ev, rest = rest[0], rest[1:]
			if ev.Kind == session.EvSamples {
				err = errors.New("perfdb: corrupt events chunk: sample event outside the packed section")
			}
		}
		if err != nil {
			return err
		}
		s.events++
		if visit != nil {
			visit(ev)
		}
	}
	return nil
}

// chunkWriter streams session events into a chunked archive. It buffers at
// most perChunk events, or maxPendingPacked bytes of packed blobs plus one
// event, before encoding them as one CRC'd chunk and handing the bytes to the
// underlying writer — the recorder's memory is bounded by the chunk size,
// not the run length.
type chunkWriter struct {
	w   *bufio.Writer
	buf pendingChunk
	// hdr and counts hold a frame's 9-byte header and an 'E' payload's two
	// leading uvarints while the chunk is written; as fields they cost no
	// allocation per chunk.
	hdr    [9]byte
	counts [2 * binary.MaxVarintLen64]byte

	// perChunk is the chunk granularity (events per chunk). Smaller chunks
	// bound memory tighter and localize corruption; larger ones amortize gob
	// type descriptors better. Set before the first add.
	perChunk int

	events int // appended so far
	chunks int
	peak   int // most events ever held in memory: at most perChunk
	err    error
}

// DefaultFlushEvents is the default chunk granularity.
const DefaultFlushEvents = 512

// newChunkWriter writes the archive magic and returns a streaming writer.
func newChunkWriter(w io.Writer) (*chunkWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(chunkMagic); err != nil {
		return nil, err
	}
	return &chunkWriter{w: bw, perChunk: DefaultFlushEvents}, nil
}

// writeChunk frames and emits one chunk whose payload is the sections in
// order. The length and CRC are summed over the sections, which go straight
// to the file buffer: the payload is never joined in memory.
func (w *chunkWriter) writeChunk(kind byte, sections ...[]byte) error {
	n, crc := 0, uint32(0)
	for _, s := range sections {
		n += len(s)
		crc = crc32.Update(crc, crc32.IEEETable, s)
	}
	if n > maxChunkPayload {
		return fmt.Errorf("perfdb: chunk payload %d bytes exceeds format limit", n)
	}
	w.hdr[0] = kind
	binary.BigEndian.PutUint32(w.hdr[1:5], uint32(n))
	binary.BigEndian.PutUint32(w.hdr[5:9], crc)
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := w.w.Write(s); err != nil {
			return err
		}
	}
	return nil
}

// writeHeaderChunk emits the provisional 'H' chunk once, before the first
// event chunk. Histogram configuration is known at session construction
// (core.NewSession calls SetHistogram before anything records), so a
// truncated archive still replays with the right bin layout.
func (w *chunkWriter) writeHeaderChunk(h session.Header) error {
	var buf bytes.Buffer
	hw := toWire(h)
	if err := gob.NewEncoder(&buf).Encode(&hw); err != nil {
		return err
	}
	return w.writeChunk(chunkHeader, buf.Bytes())
}

// add appends one event to the pending chunk, flushing it when full. A
// sample batch or trace shard is packed before Append returns, so the caller
// keeps its slice; any other event is held as given until its chunk flushes.
func (w *chunkWriter) add(ev session.Event) error {
	if w.err != nil {
		return w.err
	}
	w.buf.add(ev, w.flushEvents())
	w.events++
	if n := len(w.buf.flags); n > w.peak {
		w.peak = n
	}
	if len(w.buf.flags) >= w.flushEvents() || len(w.buf.packed) >= maxPendingPacked {
		w.err = w.flush()
	}
	return w.err
}

func (w *chunkWriter) flushEvents() int {
	if w.perChunk <= 0 {
		return DefaultFlushEvents
	}
	return w.perChunk
}

// flush writes the pending chunk as one 'E' chunk (the layout is
// pendingChunk's) and empties it.
func (w *chunkWriter) flush() error {
	c := &w.buf
	if len(c.flags) == 0 {
		return nil
	}
	c.gob.Reset()
	// Through a pointer (gob encodes the slice it points to, byte for byte
	// the same) so the slice header is not boxed.
	if err := gob.NewEncoder(&c.gob).Encode(&c.rest); err != nil {
		return fmt.Errorf("perfdb: encode events chunk: %w", err)
	}
	counts := binary.AppendUvarint(w.counts[:0], uint64(len(c.flags)))
	nEvents := len(counts)
	counts = binary.AppendUvarint(counts, uint64(c.nPacked))
	w.chunks++
	err := w.writeChunk(chunkEvents, counts[:nEvents], c.flags, counts[nEvents:], c.packed, c.gob.Bytes())
	clear(c.rest) // the events' strings are encoded; let them go
	c.flags, c.nPacked, c.packed, c.rest = c.flags[:0], 0, c.packed[:0], c.rest[:0]
	return err
}

// close flushes the final partial chunk and writes the trailer carrying
// the finalized header. The writer must not be used afterwards: close lets go
// of the pending chunk's buffers, which a caller reading the recorder's
// counters would otherwise keep at their high-water size.
func (w *chunkWriter) close(h session.Header) error {
	defer func() { w.buf = pendingChunk{} }()
	if w.err != nil {
		return w.err
	}
	if err := w.flush(); err != nil {
		w.err = err
		return err
	}
	h.Version = session.Version
	h.NumEvents = w.events
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&trailer{Header: toWire(h), NumEvents: w.events, NumChunks: w.chunks}); err != nil {
		w.err = err
		return err
	}
	if err := w.writeChunk(chunkTrailer, buf.Bytes()); err != nil {
		w.err = err
		return err
	}
	w.err = w.w.Flush()
	return w.err
}

// WriteArchive encodes an in-memory session archive in chunked, compacted
// form.
func WriteArchive(w io.Writer, a *session.Archive) error {
	cw, err := newChunkWriter(w)
	if err != nil {
		return err
	}
	if err := cw.writeHeaderChunk(provisionalHeader(a.Header)); err != nil {
		return err
	}
	for i := range a.Events {
		if err := cw.add(a.Events[i]); err != nil {
			return err
		}
	}
	return cw.close(a.Header)
}

// provisionalHeader strips a header to what a streaming writer knows up
// front: format version and histogram configuration.
func provisionalHeader(h session.Header) session.Header {
	return session.Header{Version: session.Version, NumBins: h.NumBins, BinWidth: h.BinWidth}
}

// archiveScan is the one chunk cursor under every read-side consumer — the
// only code that knows the framing, the per-chunk CRC, the header/trailer
// rules and the 'E' payload layout. It hands the archive's events one at a
// time to a visit function; collecting them (ReadArchive), folding them into
// a View (OpenRun) or only counting them (the verify step of sync and
// AddFile) is the consumer's business. Every event arrives through one reused
// session.Event over one payload buffer, one string table, one blob index and
// one sample scratch, all valid until visit returns: a consumer that keeps
// nothing holds one chunk of memory however long the run. A shard's spans are
// always a fresh slice, because the timeline keeps them by reference.
type archiveScan struct {
	r io.Reader
	// header is the header chunk's while events are visited, the trailer's
	// after (truncated: still the provisional one, NumEvents filled in).
	header    session.Header
	events    int  // visited so far
	truncated bool // the stream ended before its trailer

	frames, chunks int              // frames read; 'E' chunks among them
	payload        []byte           // the current frame's
	up             session.Unpacker // one string table for the whole read
	blobs          [][]byte
	samples        []datasource.Sample
	// ev is a field on purpose: a `var ev session.Event` declared inside the
	// per-event loop and passed by pointer escapes once per event, which
	// alone took store-cycle from 370 k mallocs to 393 k.
	ev session.Event
}

// scanArchive reads the archive on r to its end and returns the finished
// scan. consume is called once the header chunk is in and answers what to do
// with each event; nil only verifies the archive — every CRC, count and
// trailer check runs, every event is decoded into scratch. CRC mismatches,
// bad framing and decode failures are errors; a stream that simply ends
// before its trailer (recorder killed mid-run) scans as truncated.
func scanArchive(r io.Reader, consume func(*archiveScan) func(*session.Event)) (*archiveScan, error) {
	got := make([]byte, len(chunkMagic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("perfdb: not a pperf session archive (short file: %v)", err)
	}
	if bytes.Equal(got, retiredMagic) {
		return nil, ErrRetiredFormat
	}
	if !bytes.Equal(got, chunkMagic) {
		return nil, errors.New("perfdb: not a pperf session archive (bad magic)")
	}
	s := &archiveScan{r: r}
	// The first frame has to be the header chunk: frame refuses all else there.
	done, err := s.frame(nil)
	var visit func(*session.Event)
	if err == nil && consume != nil {
		visit = consume(s)
	}
	for !done && err == nil {
		done, err = s.frame(visit)
	}
	return s, err
}

// frame reads and checks one frame; done reports the end of the archive.
func (s *archiveScan) frame(visit func(*session.Event)) (done bool, err error) {
	i, gotHeader := s.frames, s.frames > 0
	s.frames++
	var hdr [9]byte
	readErr := "perfdb: corrupt archive at chunk %d: %v"
	if _, err = io.ReadFull(s.r, hdr[:]); err == nil {
		plen := binary.BigEndian.Uint32(hdr[1:5])
		if plen > maxChunkPayload {
			return false, fmt.Errorf("perfdb: corrupt archive: chunk %d declares %d-byte payload", i, plen)
		}
		readErr = "perfdb: corrupt archive: chunk %d payload: %v"
		s.payload = slices.Grow(s.payload[:0], int(plen))[:plen]
		_, err = io.ReadFull(s.r, s.payload)
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Clean end or mid-frame cut without a trailer: the writer was
		// killed. The complete chunks are a faithful prefix of the session.
		if !gotHeader {
			return false, errors.New("perfdb: archive truncated before its header chunk")
		}
		s.truncated, s.header.NumEvents = true, s.events
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf(readErr, i, err)
	}
	wantCRC := binary.BigEndian.Uint32(hdr[5:9])
	if crc := wire.Checksum(s.payload); crc != wantCRC {
		return false, fmt.Errorf("perfdb: corrupt archive: chunk %d CRC mismatch (stored %08x, computed %08x)", i, wantCRC, crc)
	}
	switch kind := hdr[0]; kind {
	case chunkHeader:
		if gotHeader {
			return false, errors.New("perfdb: corrupt archive: duplicate header chunk")
		}
		var hw headerWire
		if err := gob.NewDecoder(bytes.NewReader(s.payload)).Decode(&hw); err != nil {
			return false, fmt.Errorf("perfdb: corrupt archive header: %v", err)
		}
		if s.header, err = fromWire(hw); err != nil {
			return false, err
		}
		if s.header.Version != session.Version {
			return false, fmt.Errorf("perfdb: archive event-schema version %d; this build reads version %d", s.header.Version, session.Version)
		}
	case chunkEvents:
		if !gotHeader {
			return false, errors.New("perfdb: corrupt archive: events before the header chunk")
		}
		s.chunks++
		return false, s.eventsChunk(s.payload, visit)
	case chunkTrailer:
		if !gotHeader {
			return false, errors.New("perfdb: corrupt archive: trailer before the header chunk")
		}
		var t trailer
		if err := gob.NewDecoder(bytes.NewReader(s.payload)).Decode(&t); err != nil {
			return false, fmt.Errorf("perfdb: corrupt archive trailer: %v", err)
		}
		if t.NumEvents != s.events {
			return false, fmt.Errorf("perfdb: corrupt archive: trailer declares %d events, chunks hold %d", t.NumEvents, s.events)
		}
		if t.NumChunks != s.chunks {
			return false, fmt.Errorf("perfdb: corrupt archive: trailer declares %d event chunks, read %d", t.NumChunks, s.chunks)
		}
		if t.Header.Version != session.Version {
			return false, fmt.Errorf("perfdb: archive event-schema version %d; this build reads version %d", t.Header.Version, session.Version)
		}
		if s.header, err = fromWire(t.Header); err != nil {
			return false, err
		}
		// Anything after the trailer means the file was appended to
		// or two archives were concatenated; refuse rather than guess.
		var one [1]byte
		if _, err := io.ReadFull(s.r, one[:]); err != io.EOF {
			return false, errors.New("perfdb: corrupt archive: data beyond the trailer chunk")
		}
		return true, nil
	default:
		return false, fmt.Errorf("perfdb: corrupt archive: unknown chunk kind %q", kind)
	}
	return false, nil
}

// ReadArchive parses a chunked archive: it collects the scan. A truncated
// archive holds the complete-chunk prefix under the provisional header.
func ReadArchive(r io.Reader) (*session.Archive, error) {
	var a session.Archive
	s, err := scanArchive(r, func(s *archiveScan) func(*session.Event) {
		return func(ev *session.Event) {
			a.Events = append(a.Events, *ev)
			s.samples = nil // the archive keeps this batch; the next gets its own
		}
	})
	if err != nil {
		return nil, err
	}
	a.Header, a.Truncated = s.header, s.truncated
	return &a, nil
}

// openFile is os.Open; a test wraps it to count what a consumer reads.
var openFile = func(path string) (io.ReadCloser, error) { return os.Open(path) }

// scanFile is scanArchive over the file at path.
func scanFile(path string, consume func(*archiveScan) func(*session.Event)) (*archiveScan, error) {
	f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scanArchive(f, consume)
}

// LoadAny reads a session archive from path.
func LoadAny(path string) (*session.Archive, error) {
	f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadArchive(f)
}
