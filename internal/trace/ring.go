package trace

// Recorder is a bounded ring buffer of spans for one track. When the track
// outruns its drains the oldest spans are evicted and counted, so a merged
// timeline can report exactly how much history was lost instead of silently
// rendering a partial trace. The capacity is the logical bound — eviction
// triggers at exactly that many undrained spans — but the backing array
// grows to it by doubling, on demand, from nothing: a track that records a
// few hundred spans between drains never pays for the full ring.
//
// The simulation engine runs exactly one process at a time, and daemons
// drain recorders from engine context too, so Recorder needs no locking.
type Recorder struct {
	proc     string
	node     string
	capacity int
	// buf is the ring. While it is shorter than capacity it has never been
	// full, so it has never wrapped: start is 0 and growing is an append.
	buf     []Span
	start   int // index of oldest span
	n       int // live spans
	dropped int64
}

// NewRecorder returns a recorder for one track with the given capacity
// (DefaultRingCapacity if cap <= 0).
func NewRecorder(proc, node string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Recorder{proc: proc, node: node, capacity: capacity}
}

// Proc returns the track name.
func (r *Recorder) Proc() string { return r.proc }

// Node returns the track's cluster node.
func (r *Recorder) Node() string { return r.node }

// Record appends a span, evicting the oldest if the ring is full.
func (r *Recorder) Record(s Span) {
	s.Proc, s.Node = r.proc, r.node
	if r.n == r.capacity {
		r.start = (r.start + 1) % r.capacity
		r.n--
		r.dropped++
	} else if r.n == len(r.buf) {
		r.buf = append(r.buf, make([]Span, min(r.capacity, max(64, 2*len(r.buf)))-len(r.buf))...)
	}
	r.buf[(r.start+r.n)%len(r.buf)] = s
	r.n++
}

// Len returns the number of undrained spans.
func (r *Recorder) Len() int { return r.n }

// Dropped returns the cumulative number of evicted spans.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Drain removes and returns all buffered spans in record order, as a fresh
// slice the caller owns. It returns nil when the ring is empty so callers can
// skip empty shards cheaply.
func (r *Recorder) Drain() []Span {
	if r.n == 0 {
		return nil
	}
	out := make([]Span, r.n)
	head := copy(out, r.buf[r.start:min(r.start+r.n, len(r.buf))])
	copy(out[head:], r.buf) // the wrapped part, if any
	r.start = 0
	r.n = 0
	return out
}
