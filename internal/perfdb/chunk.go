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
	"io"
	"os"
	"sort"

	"pperf/internal/session"
	"pperf/internal/sim"
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

// ChunkVersion is the chunked-archive format version. The session.Header
// inside carries session.Version for the event schema; this constant
// versions the framing itself.
const ChunkVersion = 1

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
// shards ride as packed blobs (session.Packer), everything else as gob of
// session.Event (one encoder per chunk, so chunks stay independently
// decodable). A batch or shard is packed the moment it is appended, so the
// chunk never holds a caller's sample or span slice.
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
type pendingChunk struct {
	flags   []byte          // one per event, in order
	nPacked int             // packed blobs among them
	packed  []byte          // the blobs, each behind its uvarint length
	rest    []session.Event // the gob-section events
	pk      session.Packer
	blob    []byte // one blob, packed, before its length is known
}

func (c *pendingChunk) add(ev session.Event) {
	switch ev.Kind {
	case session.EvSamples:
		c.flags = append(c.flags, flagSamples)
		c.blob = c.pk.PackSamples(c.blob[:0], ev.Samples)
	case session.EvShard:
		c.flags = append(c.flags, flagShard)
		c.blob = c.pk.PackShard(c.blob[:0], &ev.Shard)
	default:
		c.flags = append(c.flags, flagGob)
		c.rest = append(c.rest, ev)
		return
	}
	c.nPacked++
	c.packed = binary.AppendUvarint(c.packed, uint64(len(c.blob)))
	c.packed = append(c.packed, c.blob...)
}

// encode renders the payload and empties the chunk, keeping its buffers.
func (c *pendingChunk) encode() ([]byte, error) {
	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(c.rest); err != nil {
		return nil, fmt.Errorf("perfdb: encode events chunk: %w", err)
	}
	out := make([]byte, 0, 2*binary.MaxVarintLen64+len(c.flags)+len(c.packed)+gobBuf.Len())
	out = binary.AppendUvarint(out, uint64(len(c.flags)))
	out = append(out, c.flags...)
	out = binary.AppendUvarint(out, uint64(c.nPacked))
	out = append(out, c.packed...)
	out = append(out, gobBuf.Bytes()...)
	clear(c.rest) // the events' strings are encoded; let them go
	c.flags, c.nPacked, c.packed, c.rest = c.flags[:0], 0, c.packed[:0], c.rest[:0]
	return out, nil
}

// decodeEventsChunk reverses pendingChunk.encode, resolving packed strings
// through the reader's table. Corrupt input yields an error, never a panic.
func decodeEventsChunk(data []byte, up *session.Unpacker) ([]session.Event, error) {
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
		return nil, err
	}
	if nEvents > uint64(len(data)) {
		return nil, fmt.Errorf("perfdb: corrupt events chunk: %d events in %d bytes", nEvents, len(data))
	}
	if uint64(len(data)-pos) < nEvents {
		return nil, errors.New("perfdb: corrupt events chunk: flag bytes overrun input")
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
			return nil, fmt.Errorf("perfdb: corrupt events chunk: bad event flag %d", f)
		}
	}
	nPacked, err := getU()
	if err != nil {
		return nil, err
	}
	if nPacked != uint64(wantPacked) {
		return nil, fmt.Errorf("perfdb: corrupt events chunk: %d packed blobs, flags promise %d", nPacked, wantPacked)
	}
	blobs := make([][]byte, nPacked)
	for i := range blobs {
		l, err := getU()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(data)-pos) {
			return nil, fmt.Errorf("perfdb: corrupt events chunk: packed blob %d overruns input", i)
		}
		blobs[i] = data[pos : pos+int(l)]
		pos += int(l)
	}
	var rest []session.Event
	if err := gob.NewDecoder(bytes.NewReader(data[pos:])).Decode(&rest); err != nil {
		return nil, fmt.Errorf("perfdb: corrupt events chunk: %v", err)
	}
	if nRest := len(flags) - wantPacked; len(rest) != nRest {
		return nil, fmt.Errorf("perfdb: corrupt events chunk: %d gob events, flags promise %d", len(rest), nRest)
	}
	out := make([]session.Event, 0, nEvents)
	pi, ri := 0, 0
	for _, f := range flags {
		var ev session.Event
		switch f {
		case flagSamples:
			ev.Kind = session.EvSamples
			ev.Samples, err = up.UnpackSamples(blobs[pi])
			pi++
		case flagShard:
			ev.Kind = session.EvShard
			ev.Shard, err = up.UnpackShard(blobs[pi])
			pi++
		default:
			ev = rest[ri]
			ri++
			if ev.Kind == session.EvSamples {
				err = errors.New("perfdb: corrupt events chunk: sample event outside the packed section")
			}
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// Writer streams session events into a chunked archive. It buffers at
// most FlushEvents events, or maxPendingPacked bytes of packed blobs plus one
// event, before encoding them as one CRC'd chunk and handing the bytes to the
// underlying writer — the recorder's memory is bounded by the chunk size,
// not the run length.
type Writer struct {
	w   *bufio.Writer
	buf pendingChunk

	// FlushEvents is the chunk granularity (events per chunk). Smaller
	// chunks bound memory tighter and localize corruption; larger ones
	// amortize gob type descriptors better. Set before the first Append.
	FlushEvents int

	events int
	chunks int
	peak   int
	err    error
}

// DefaultFlushEvents is the default chunk granularity.
const DefaultFlushEvents = 512

// NewWriter writes the archive magic and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(chunkMagic); err != nil {
		return nil, err
	}
	return &Writer{w: bw, FlushEvents: DefaultFlushEvents}, nil
}

// writeChunk frames and emits one chunk.
func (w *Writer) writeChunk(kind byte, payload []byte) error {
	if len(payload) > maxChunkPayload {
		return fmt.Errorf("perfdb: chunk payload %d bytes exceeds format limit", len(payload))
	}
	var hdr [9]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:9], wire.Checksum(payload))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// writeHeaderChunk emits the provisional 'H' chunk once, before the first
// event chunk. Histogram configuration is known at session construction
// (core.NewSession calls SetHistogram before anything records), so a
// truncated archive still replays with the right bin layout.
func (w *Writer) writeHeaderChunk(h session.Header) error {
	var buf bytes.Buffer
	hw := toWire(h)
	if err := gob.NewEncoder(&buf).Encode(&hw); err != nil {
		return err
	}
	return w.writeChunk(chunkHeader, buf.Bytes())
}

// Append adds one event to the pending chunk, flushing it when full. A
// sample batch or trace shard is packed before Append returns, so the caller
// keeps its slice; any other event is held as given until its chunk flushes.
func (w *Writer) Append(ev session.Event) error {
	if w.err != nil {
		return w.err
	}
	w.buf.add(ev)
	w.events++
	if n := len(w.buf.flags); n > w.peak {
		w.peak = n
	}
	if len(w.buf.flags) >= w.flushEvents() || len(w.buf.packed) >= maxPendingPacked {
		w.err = w.flush()
	}
	return w.err
}

func (w *Writer) flushEvents() int {
	if w.FlushEvents <= 0 {
		return DefaultFlushEvents
	}
	return w.FlushEvents
}

func (w *Writer) flush() error {
	if len(w.buf.flags) == 0 {
		return nil
	}
	payload, err := w.buf.encode()
	if err != nil {
		return err
	}
	w.chunks++
	return w.writeChunk(chunkEvents, payload)
}

// EventCount returns the number of events appended so far.
func (w *Writer) EventCount() int { return w.events }

// PeakBuffered returns the maximum number of events ever held in memory —
// the bounded-memory guarantee a test can assert (≤ FlushEvents).
func (w *Writer) PeakBuffered() int { return w.peak }

// Close flushes the final partial chunk and writes the trailer carrying
// the finalized header. The Writer must not be used afterwards.
func (w *Writer) Close(h session.Header) error {
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
	cw, err := NewWriter(w)
	if err != nil {
		return err
	}
	if err := cw.writeHeaderChunk(provisionalHeader(a.Header)); err != nil {
		return err
	}
	for i := range a.Events {
		if err := cw.Append(a.Events[i]); err != nil {
			return err
		}
	}
	return cw.Close(a.Header)
}

// provisionalHeader strips a header to what a streaming writer knows up
// front: format version and histogram configuration.
func provisionalHeader(h session.Header) session.Header {
	return session.Header{Version: session.Version, NumBins: h.NumBins, BinWidth: h.BinWidth}
}

// ReadArchive parses a chunked archive. CRC mismatches, bad framing, and
// decode failures are errors; a stream that simply ends before its
// trailer (recorder killed mid-run) loads as a Truncated archive holding
// the complete-chunk prefix under the provisional header.
func ReadArchive(r io.Reader) (*session.Archive, error) {
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
	var (
		a         session.Archive
		up        session.Unpacker // one string table for the whole read
		gotHeader bool
		chunks    int
		err2      error
	)
	for i := 0; ; i++ {
		var hdr [9]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				// Clean end or mid-frame cut without a trailer: the
				// writer was killed. The complete chunks are a faithful
				// prefix of the session.
				if !gotHeader {
					return nil, errors.New("perfdb: archive truncated before its header chunk")
				}
				a.Truncated = true
				a.Header.NumEvents = len(a.Events)
				return &a, nil
			}
			return nil, fmt.Errorf("perfdb: corrupt archive at chunk %d: %v", i, err)
		}
		kind := hdr[0]
		plen := binary.BigEndian.Uint32(hdr[1:5])
		wantCRC := binary.BigEndian.Uint32(hdr[5:9])
		if plen > maxChunkPayload {
			return nil, fmt.Errorf("perfdb: corrupt archive: chunk %d declares %d-byte payload", i, plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if !gotHeader {
					return nil, errors.New("perfdb: archive truncated before its header chunk")
				}
				a.Truncated = true
				a.Header.NumEvents = len(a.Events)
				return &a, nil
			}
			return nil, fmt.Errorf("perfdb: corrupt archive: chunk %d payload: %v", i, err)
		}
		if crc := wire.Checksum(payload); crc != wantCRC {
			return nil, fmt.Errorf("perfdb: corrupt archive: chunk %d CRC mismatch (stored %08x, computed %08x)", i, wantCRC, crc)
		}
		switch kind {
		case chunkHeader:
			if gotHeader {
				return nil, errors.New("perfdb: corrupt archive: duplicate header chunk")
			}
			var hw headerWire
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&hw); err != nil {
				return nil, fmt.Errorf("perfdb: corrupt archive header: %v", err)
			}
			if a.Header, err2 = fromWire(hw); err2 != nil {
				return nil, err2
			}
			if a.Header.Version != session.Version {
				return nil, fmt.Errorf("perfdb: archive event-schema version %d; this build reads version %d", a.Header.Version, session.Version)
			}
			gotHeader = true
		case chunkEvents:
			if !gotHeader {
				return nil, errors.New("perfdb: corrupt archive: events before the header chunk")
			}
			evs, err := decodeEventsChunk(payload, &up)
			if err != nil {
				return nil, err
			}
			a.Events = append(a.Events, evs...)
			chunks++
		case chunkTrailer:
			if !gotHeader {
				return nil, errors.New("perfdb: corrupt archive: trailer before the header chunk")
			}
			var t trailer
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&t); err != nil {
				return nil, fmt.Errorf("perfdb: corrupt archive trailer: %v", err)
			}
			if t.NumEvents != len(a.Events) {
				return nil, fmt.Errorf("perfdb: corrupt archive: trailer declares %d events, chunks hold %d", t.NumEvents, len(a.Events))
			}
			if t.NumChunks != chunks {
				return nil, fmt.Errorf("perfdb: corrupt archive: trailer declares %d event chunks, read %d", t.NumChunks, chunks)
			}
			if t.Header.Version != session.Version {
				return nil, fmt.Errorf("perfdb: archive event-schema version %d; this build reads version %d", t.Header.Version, session.Version)
			}
			if a.Header, err2 = fromWire(t.Header); err2 != nil {
				return nil, err2
			}
			// Anything after the trailer means the file was appended to
			// or two archives were concatenated; refuse rather than guess.
			var one [1]byte
			if _, err := io.ReadFull(r, one[:]); err != io.EOF {
				return nil, errors.New("perfdb: corrupt archive: data beyond the trailer chunk")
			}
			return &a, nil
		default:
			return nil, fmt.Errorf("perfdb: corrupt archive: unknown chunk kind %q", kind)
		}
	}
}

// LoadAny reads a session archive from path.
func LoadAny(path string) (*session.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadArchive(f)
}
