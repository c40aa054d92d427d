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

// DrainShard removes all buffered spans and returns them as one shard in its
// packed form, stamped with the draining daemon's name and the ring's
// cumulative drop count. The spans are packed straight out of the ring
// through p — no []Span copy is made — so the shard's bytes are the drain's
// one allocation.
func (r *Recorder) DrainShard(p *Packer, daemon string) Shard {
	sh := Shard{Daemon: daemon, Proc: r.proc, Node: r.node, Dropped: r.dropped}
	head := r.buf[r.start:min(r.start+r.n, len(r.buf))]
	p.seal(&sh, head, r.buf[:r.n-len(head)]) // and the wrapped part, if any
	r.start, r.n = 0, 0
	return sh
}
