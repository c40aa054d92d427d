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
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"

	"pperf/internal/datasource"
	"pperf/internal/packed"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// Chunked archive format, version 2:
//
//	6 bytes  magic "PPDBA2"
//	chunk 'H'  provisional header: everything set before the first event —
//	           version, histogram configuration, the run description the
//	           harness stamps at launch
//	chunk 'E'* event chunks (packed sample batches, trace shards and events)
//	chunk 'T'  trailer: the final header, with the event and chunk counts
//
// 'H' and 'T' each hold one header record (appendHeader). Every chunk is
// framed [1 kind][uint32 payload len][uint32 CRC32-IEEE of payload][payload],
// so corruption is detected per chunk instead of garbage-decoded, and a file
// cut mid-write loads as a Truncated archive holding the complete-chunk
// prefix (the trailer doubles as the completeness mark). The final header
// lives in the trailer because a *streaming* writer does not know all of
// Meta — the live-only facts pperfmark stamps at the end of the run — until
// the recording finishes.
var chunkMagic = []byte("PPDBA2")

// ErrRetiredFormat is wrapped by the error for an archive in a retired format.
var ErrRetiredFormat = errors.New("archive format retired; re-record the run (-record / -db write PPDBA2)")

const (
	chunkHeader  = 'H'
	chunkEvents  = 'E'
	chunkTrailer = 'T'
)

// maxChunkPayload bounds a frame's declared payload so corrupt length
// fields cannot drive giant allocations.
const maxChunkPayload = 1 << 30

// appendHeader appends h's header record, declaring chunks event chunks, to
// out, with w's dictionary. The record is in internal/packed's form:
//
//	packed head: uvarint nMeta, the dictionary of Meta's keys and values
//	zigzag Version, NumEvents, NumBins, BinWidth, event chunks (0 in 'H')
//	nMeta pairs in key order: uvarint key index, value index
func appendHeader(out []byte, w *packed.Writer, h session.Header, chunks int) []byte {
	w.Reset()
	keys := make([]string, 0, len(h.Meta))
	for k := range h.Meta {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.Recs = append(w.Recs, [5]uint64{w.Intern(k), w.Intern(h.Meta[k])})
	}
	out = w.Head(out, len(keys))
	for _, x := range [...]int64{int64(h.Version), int64(h.NumEvents), int64(h.NumBins), int64(h.BinWidth), int64(chunks)} {
		out = binary.AppendVarint(out, x)
	}
	for _, r := range w.Recs {
		out = binary.AppendUvarint(binary.AppendUvarint(out, r[0]), r[1])
	}
	return out
}

// readHeader decodes the header record in the current payload through the
// scan's string table; what heads its errors. A record of another version is
// refused as that, before anything its layout may differ in is read.
func (s *archiveScan) readHeader(what string) (h session.Header, chunks int, err error) {
	c, n := packed.Open(&s.up.Table, s.payload, what, 2)
	var x [5]int64
	for i := range x {
		x[i] = c.Varint()
	}
	h = session.Header{Version: int(x[0]), NumEvents: int(x[1]), NumBins: int(x[2]), BinWidth: sim.Duration(x[3])}
	if c.Err == nil && h.Version != session.Version {
		return h, 0, fmt.Errorf("perfdb: archive event-schema version %d; this build reads version %d", h.Version, session.Version)
	}
	if n > 0 {
		h.Meta = make(map[string]string, n)
	}
	for i := 0; i < n && c.Err == nil; i++ {
		k, v := c.Str(), c.Str()
		if _, dup := h.Meta[k]; dup {
			c.Fail("duplicate meta key %q", k)
		}
		h.Meta[k] = v
	}
	return h, int(x[4]), c.Close()
}

// The flag byte an 'E' chunk holds per event: where the event's bytes are.
const (
	flagSamples = 1 // the next packed blob, a sample batch
	flagShard   = 2 // the next packed blob, a trace shard
	flagEvents  = 3 // the next record of the chunk's packed event section
)

// maxPendingPacked is the byte bound of a pending chunk: once its packed
// blobs pass it the chunk is flushed, however few events that is. Sample
// batches never get near it (DefaultFlushEvents of them pack to well under
// 1 MiB); 512 full trace shards made chunks of tens of megabytes.
const maxPendingPacked = 4 << 20

// pendingChunk is an 'E' chunk being assembled: sample batches and trace
// shards ride as packed blobs, everything else in one packed event section
// (its own dictionary, so chunks stay independently decodable). A batch is
// packed the moment it is appended, and the bytes of a batch kept packed by
// an archive read or of a shard — packed where its ring was drained — are
// copied in as they are, so the chunk never holds a caller's sample slice or
// shard.
//
// Payload layout:
//
//	uvarint nEvents
//	nEvents flag bytes, one per event
//	uvarint nPacked; per blob, in event order: uvarint len + bytes
//	remaining: the flagEvents events' packed section; none without them
//
// Every buffer is kept from chunk to chunk: packed and rest grow by doubling,
// packed to maxPendingPacked plus the blob that crosses it, rest to the
// chunk's event bound.
type pendingChunk struct {
	flags   []byte          // one per event, in order
	nPacked int             // packed blobs among them
	packed  []byte          // the blobs, each behind its uvarint length
	rest    []session.Event // the event-section events
	section []byte          // rest, packed at flush
	pk      session.Packer
	blob    []byte // one sample batch, packed, before its length is known
	hw      packed.Writer
	rec     []byte // the header or trailer record
}

// add appends one event to a chunk that holds at most maxEvents.
func (c *pendingChunk) add(ev session.Event, maxEvents int) {
	var blob []byte
	switch ev.Kind {
	case session.EvSamples:
		c.flags = append(c.flags, flagSamples)
		if ev.Batch != nil {
			blob = ev.Batch.Data
			break
		}
		c.blob = c.pk.PackSamples(c.blob[:0], ev.Samples)
		blob = c.blob
	case session.EvShard:
		c.flags = append(c.flags, flagShard)
		blob = ev.Shard.Packed()
	default:
		c.flags = append(c.flags, flagEvents)
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
// order, resolving packed strings through the scan's table. A collecting scan
// (keep) keeps each sample batch packed, checked record by record, in two
// exact-size slabs per chunk, the batches' bytes and their PackedBatch
// records; their Dicts, one per distinct dictionary and layout in the read,
// go in the doubling blocks of session.KeptDicts. Every other scan decodes each batch into its scratch.
// Corrupt input yields an error, never a panic, and the same error either way.
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
	var per [flagEvents + 1]int // events per flag
	for _, f := range flags {
		if f == 0 || f > flagEvents {
			return fmt.Errorf("perfdb: corrupt events chunk: bad event flag %d", f)
		}
		per[f]++
	}
	wantPacked, nSection := per[flagSamples]+per[flagShard], per[flagEvents]
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
	var kept []session.PackedBatch
	var slab []byte
	if s.keep && per[flagSamples] > 0 {
		size, b := 0, blobs
		for _, f := range flags {
			if f == flagSamples {
				size += len(b[0])
			}
			if f != flagEvents {
				b = b[1:]
			}
		}
		kept, slab = make([]session.PackedBatch, per[flagSamples]), make([]byte, 0, size)
	}
	nKept := 0
	var rest []session.Event
	switch data = data[pos:]; {
	case nSection > 0: // the count is checked before anything is decoded for it
		if n, _ := binary.Uvarint(data); n != uint64(nSection) {
			return fmt.Errorf("perfdb: corrupt events chunk: %d packed events, flags promise %d", n, nSection)
		}
		if s.rest, err = s.up.UnpackEventsInto(s.rest, data); err != nil {
			return err
		}
		rest = s.rest
	case len(data) > 0:
		return fmt.Errorf("perfdb: corrupt events chunk: %d bytes after the packed blobs, no event section promised", len(data))
	}
	ev := &s.ev
	for _, f := range flags {
		switch f {
		case flagSamples:
			*ev = session.Event{Kind: session.EvSamples}
			if kept != nil {
				ev.Batch = &kept[nKept]
				nKept++
				start := len(slab)
				slab = append(slab, blobs[0]...)
				err = s.up.KeepSamples(ev.Batch, slab[start:len(slab):len(slab)], &s.dicts)
			} else {
				ev.Samples, err = s.up.UnpackSamplesInto(s.samples, blobs[0])
				s.samples = ev.Samples
			}
			blobs = blobs[1:]
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
	// bound memory tighter and localize corruption; larger ones amortize each
	// blob's dictionary better. Set before the first add.
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
	cw := &chunkWriter{w: bw, perChunk: DefaultFlushEvents}
	spare.Lock()
	cw.buf, spare.chunk = spare.chunk, pendingChunk{}
	spare.Unlock()
	return cw, nil
}

// release hands the pending chunk's buffers back to spare, emptied, unless a
// trace shard grew its packed blobs past twice the chunk bound. The writer
// must not be used afterwards.
func (w *chunkWriter) release() {
	if c := &w.buf; cap(c.packed) <= 2*maxPendingPacked {
		c.reset()
		spare.Lock()
		spare.chunk = *c
		spare.Unlock()
	}
	w.buf = pendingChunk{}
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

// writeHeader emits the 'H' or the 'T' chunk: h's record under this build's
// version, declaring events events in chunks event chunks. The 'H' chunk goes
// out once, before the first event chunk, with whatever h holds by then:
// histogram configuration is known at session construction (core.NewSession
// calls SetHistogram before anything records) and pperfmark stamps its run
// description at launch, so a truncated archive still replays, with the
// right bin layout.
func (w *chunkWriter) writeHeader(kind byte, h session.Header, events, chunks int) error {
	h.Version, h.NumEvents = session.Version, events
	c := &w.buf
	c.rec = appendHeader(c.rec[:0], &c.hw, h, chunks)
	return w.writeChunk(kind, c.rec)
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
	c.section = c.section[:0]
	if len(c.rest) > 0 {
		c.section = c.pk.PackEvents(c.section, c.rest)
	}
	counts := binary.AppendUvarint(w.counts[:0], uint64(len(c.flags)))
	nEvents := len(counts)
	counts = binary.AppendUvarint(counts, uint64(c.nPacked))
	w.chunks++
	err := w.writeChunk(chunkEvents, counts[:nEvents], c.flags, counts[nEvents:], c.packed, c.section)
	c.reset()
	return err
}

// reset empties the chunk, keeping its buffers.
func (c *pendingChunk) reset() {
	clear(c.rest) // the events' strings are encoded; let them go
	c.flags, c.nPacked, c.packed, c.rest = c.flags[:0], 0, c.packed[:0], c.rest[:0]
}

// close flushes the final partial chunk and writes the trailer carrying
// the finalized header. The writer must not be used afterwards; its owner
// releases it.
func (w *chunkWriter) close(h session.Header) error {
	if w.err != nil {
		return w.err
	}
	if err := w.flush(); err != nil {
		w.err = err
		return err
	}
	if err := w.writeHeader(chunkTrailer, h, w.events, w.chunks); err != nil {
		w.err = err
		return err
	}
	w.err = w.w.Flush()
	return w.err
}

// WriteArchive encodes an in-memory session archive in chunked, compacted
// form. A Truncated archive is written as the crashed recording it is: its
// events and no trailer, so it loads back Truncated.
func WriteArchive(w io.Writer, a *session.Archive) error {
	cw, err := newChunkWriter(w)
	if err != nil {
		return err
	}
	return cw.encode(a)
}

// encode writes a's events, and its trailer unless a is Truncated, after the
// magic newChunkWriter wrote, and releases the writer.
func (w *chunkWriter) encode(a *session.Archive) error {
	defer w.release()
	if err := w.writeHeader(chunkHeader, a.Header, 0, 0); err != nil {
		return err
	}
	for i := range a.Events {
		if err := w.add(a.Events[i]); err != nil {
			return err
		}
	}
	if a.Truncated {
		if err := w.flush(); err != nil {
			return err
		}
		return w.w.Flush()
	}
	return w.close(a.Header)
}

// archiveScan is the one chunk cursor under every read-side consumer — the
// only code that knows the framing, the per-chunk CRC, the header/trailer
// rules and the 'E' payload layout. It hands the archive's events one at a
// time to a visit function; collecting them (ReadArchive), folding them into
// a View (OpenRun) or only counting them (the verify step of sync and
// AddFile) is the consumer's business. Every event arrives through one reused
// session.Event over one string table and one scanScratch, all valid until
// visit returns: a consumer that keeps nothing holds one chunk of memory
// however long the run. A shard's spans are always a fresh slice, because the
// timeline keeps them by reference.
type archiveScan struct {
	r io.Reader
	// header is the header chunk's while events are visited, the trailer's
	// after (truncated: still the provisional one, NumEvents filled in).
	header    session.Header
	events    int  // visited so far
	truncated bool // the stream ended before its trailer

	frames, chunks int              // frames read; 'E' chunks among them
	hdr            [9]byte          // the current frame's header
	up             session.Unpacker // one string table for the whole read
	scanScratch
	// keep makes a collecting scan: its sample batches stay packed.
	keep bool
	// ev is a field on purpose: a `var ev session.Event` declared inside the
	// per-event loop and passed by pointer escapes once per event, which
	// alone took store-cycle from 370 k mallocs to 393 k.
	ev session.Event
}

// scanScratch is what a scan decodes one chunk into.
type scanScratch struct {
	payload []byte // the current frame's
	blobs   [][]byte
	samples []datasource.Sample
	rest    []session.Event   // the chunk's event section
	dicts   session.KeptDicts // the Dicts of a collecting scan's kept batches
}

// spare is the scratch the last scan left and the chunk buffers the last
// writer left: the next scan or writer takes them, so LoadAny, OpenRun, the
// verify steps, every recorder and every archive write stop regrowing a
// chunk of buffers per file; one that finds them taken grows its own. A
// sync.Pool would drop them at every collection and make allocations depend
// on GC timing.
var spare struct {
	sync.Mutex
	scanScratch
	chunk pendingChunk
}

// release hands s's scratch back, emptied, unless a trace-sized chunk grew its
// payload past twice the writer's chunk bound.
func (s *archiveScan) release() {
	if sc := &s.scanScratch; cap(sc.payload) <= 2*maxPendingPacked {
		clear(sc.samples[:cap(sc.samples)])
		clear(sc.rest[:cap(sc.rest)])
		sc.dicts.Reset()
		spare.Lock()
		spare.scanScratch = scanScratch{sc.payload[:0], sc.blobs[:0], sc.samples[:0], sc.rest[:0], sc.dicts}
		spare.Unlock()
	}
	s.scanScratch = scanScratch{}
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
	// The formats nothing writes or reads any more, by magic: recognized only
	// to tell the user what to do.
	if name, ok := map[string]string{"PPARCH": "v1 PPARCH", "PPDBA1": "PPDBA1"}[string(got)]; ok {
		return nil, fmt.Errorf("perfdb: %s %w", name, ErrRetiredFormat)
	}
	if !bytes.Equal(got, chunkMagic) {
		return nil, errors.New("perfdb: not a pperf session archive (bad magic)")
	}
	spare.Lock()
	s := &archiveScan{r: r, scanScratch: spare.scanScratch}
	spare.scanScratch = scanScratch{}
	spare.Unlock()
	defer s.release()
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
	hdr := &s.hdr
	readErr := "perfdb: corrupt archive at chunk %d: %v"
	if _, err = io.ReadFull(s.r, hdr[:]); err == nil {
		s.payload = s.payload[:0]
		plen := binary.BigEndian.Uint32(hdr[1:5])
		if plen > maxChunkPayload {
			return false, fmt.Errorf("perfdb: corrupt archive: chunk %d declares %d-byte payload", i, plen)
		}
		readErr = "perfdb: corrupt archive: chunk %d payload: %v"
		// The buffer grows as bytes arrive, doubling from 64 KiB: a length
		// field over a short file costs nothing.
		for n := int(plen); err == nil && len(s.payload) < n; {
			p := slices.Grow(s.payload, min(n-len(s.payload), max(len(s.payload), 64<<10)))
			k, rerr := io.ReadFull(s.r, p[len(p):min(n, cap(p))])
			s.payload, err = p[:len(p)+k], rerr
		}
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
		if s.header, _, err = s.readHeader("perfdb: corrupt archive header"); err != nil {
			return false, err
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
		h, chunks, err := s.readHeader("perfdb: corrupt archive trailer")
		if err != nil {
			return false, err
		}
		if h.NumEvents != s.events {
			return false, fmt.Errorf("perfdb: corrupt archive: trailer declares %d events, chunks hold %d", h.NumEvents, s.events)
		}
		if chunks != s.chunks {
			return false, fmt.Errorf("perfdb: corrupt archive: trailer declares %d event chunks, read %d", chunks, s.chunks)
		}
		s.header = h
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
// archive holds the complete-chunk prefix under the provisional header. A
// reader that can seek (LoadAny's file) gets its event list allocated once.
// Every sample batch is checked and kept packed (session.PackedBatch): the
// archive holds its batches' bytes, and a replay decodes them as it applies
// them.
func ReadArchive(r io.Reader) (*session.Archive, error) {
	var a session.Archive
	if rs, ok := r.(io.ReadSeeker); ok {
		n, err := countEvents(rs)
		if err != nil {
			return nil, err
		}
		a.Events = make([]session.Event, 0, n)
	}
	s, err := scanArchive(r, func(s *archiveScan) func(*session.Event) {
		s.keep = true
		return func(ev *session.Event) { a.Events = append(a.Events, *ev) }
	})
	if err != nil {
		return nil, err
	}
	a.Header, a.Truncated = s.header, s.truncated
	return &a, nil
}

// countEvents hops the chunk frames of the archive at r's offset, sums the
// event counts its 'E' payloads open with and seeks r back. The sum is only a
// capacity: a frame counts when it lies inside the file and declares no more
// events than it has payload bytes, and the hop stops at the first that does
// not, so a forged count costs at most one Event per payload byte it holds.
func countEvents(r io.ReadSeeker) (n int, err error) {
	start, err := r.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, nil // a pipe: no capacity, and the scan reads it from here
	}
	end, err := r.Seek(0, io.SeekEnd)
	var buf [9 + binary.MaxVarintLen64]byte // a frame header and an 'E' payload's count
	for off := start + int64(len(chunkMagic)); err == nil && off+9 <= end; {
		var k int
		if _, err = r.Seek(off, io.SeekStart); err == nil {
			k, err = io.ReadFull(r, buf[:min(int64(len(buf)), end-off)])
		}
		plen := int64(binary.BigEndian.Uint32(buf[1:5]))
		if err != nil || off+9+plen > end {
			break
		}
		if buf[0] == chunkEvents {
			m, w := binary.Uvarint(buf[9:min(int64(k), 9+plen)])
			if w <= 0 || m > uint64(plen) {
				break
			}
			n += int(m)
		}
		off += 9 + plen
	}
	if _, serr := r.Seek(start, io.SeekStart); serr != nil {
		return 0, fmt.Errorf("perfdb: rewinding the archive: %w", serr)
	}
	return n, nil
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
