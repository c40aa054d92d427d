package perfdb

import (
	"fmt"
	"os"
	"sync"

	"pperf/internal/session"
	"pperf/internal/sim"
)

// StreamRecorder is the session recorder: it streams events through the
// chunk writer to disk as the run progresses, holding at most one chunk's
// worth of events (plus the file buffer) regardless of run length. It
// implements session.Sink, so it plugs into core.Options.Recorder /
// pperfmark.RunOptions.Record.
//
// Write errors are latched and surfaced at Close — the recording hooks
// sit on the front end's ingest path and must not fail mid-run.
type StreamRecorder struct {
	mu     sync.Mutex
	w      *chunkWriter
	f      *os.File
	tmp    string
	path   string
	header session.Header
	closed bool
	err    error
}

var _ session.Sink = (*StreamRecorder)(nil)

// NewStreamRecorder opens a streaming recorder writing to path (through a
// temp file renamed into place on Close, so a crashed run never leaves a
// file that parses as complete).
func NewStreamRecorder(path string) (*StreamRecorder, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w, err := newChunkWriter(f)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return &StreamRecorder{
		w: w, f: f, tmp: tmp, path: path,
		header: session.Header{Version: session.Version, Meta: map[string]string{}},
	}, nil
}

// SetHistogram records the front end's histogram configuration.
// core.NewSession calls it before any event, so the provisional header
// chunk Record writes ahead of the first event already carries it.
func (r *StreamRecorder) SetHistogram(numBins int, binWidth sim.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.header.NumBins, r.header.BinWidth = numBins, binWidth
}

// SetMeta stores one descriptive key/value pair (written with the trailer).
func (r *StreamRecorder) SetMeta(k, v string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.header.Meta[k] = v
}

// SetExtra stores the harness's opaque run description (written with the
// trailer).
func (r *StreamRecorder) SetExtra(b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.header.Extra = b
}

// EventCount returns the number of events recorded so far.
func (r *StreamRecorder) EventCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.w.events
}

// PeakBufferedEvents returns the most events ever held in memory at once —
// the figure the bounded-memory test asserts stays at the chunk size no
// matter how long the run.
func (r *StreamRecorder) PeakBufferedEvents() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.w.peak
}

// Record streams one event, emitting the provisional header chunk first so
// a truncated archive still replays with the right bin layout. The front end
// keeps ownership of a sample batch's or trace shard's slice: the writer
// packs it before Append returns and keeps only the bytes.
func (r *StreamRecorder) Record(ev session.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil || r.closed {
		return
	}
	if r.w.events == 0 {
		if err := r.w.writeHeaderChunk(provisionalHeader(r.header)); err != nil {
			r.err = err
			return
		}
	}
	if err := r.w.add(ev); err != nil {
		r.err = err
	}
}

// Header returns the finalized header (valid after Close).
func (r *StreamRecorder) Header() session.Header {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.header
}

// Path returns the destination path the archive lands at on Close.
func (r *StreamRecorder) Path() string { return r.path }

// Close flushes the final chunk, writes the trailer with the finalized
// header, closes the temp file and renames it into place. It reports the
// first error from anywhere in the recording. Temp file plus atomic rename
// protects against process death — a killed run never leaves a file that
// parses as complete; the file is not fsynced, so durability across power
// loss is not claimed.
func (r *StreamRecorder) Close() error { return r.finish(true) }

// finish is Close with the rename optional: Store.Commit leaves the complete
// archive at its temp path for the store's admission routine to move.
func (r *StreamRecorder) finish(rename bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.closed = true
	if r.err == nil && r.w.events == 0 {
		// Empty recording: still emit the header chunk so the file is a
		// valid (if eventless) archive.
		r.err = r.w.writeHeaderChunk(provisionalHeader(r.header))
	}
	if r.err == nil {
		r.header.NumEvents = r.w.events
		r.err = r.w.close(r.header)
	}
	if cerr := r.f.Close(); r.err == nil {
		r.err = cerr
	}
	if r.err != nil {
		os.Remove(r.tmp)
		return fmt.Errorf("perfdb: stream recording failed: %w", r.err)
	}
	if rename {
		r.err = os.Rename(r.tmp, r.path)
	}
	return r.err
}

// Abort discards the recording, removing the temp file.
func (r *StreamRecorder) Abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.f.Close()
	os.Remove(r.tmp)
}
