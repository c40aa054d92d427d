package trace

import (
	"encoding/binary"

	"pperf/internal/packed"
	"pperf/internal/sim"
)

// The packed form of a shard — the one form the trace plane moves and keeps:
// a recorder's spans are packed where its ring is drained, the bytes ride the
// daemon's bulk queue, the TCP frame and the archive chunk as they are, and
// the timeline holds them. After the head every packed blob starts with
// (internal/packed: record count, string dictionary) a shard is its header
// and n records of
//
//	uvarint daemonIdx, procIdx, nodeIdx; zigzag Dropped, OutboxLost
//	uvarint Kind<<1 | Wait
//	uvarint procIdx, nodeIdx, nameIdx, peerIdx, objIdx
//	zigzag delta of Seq, of Start vs the previous span (first vs 0)
//	zigzag End-Start, Depth, Tag, Bytes; uvarint Flow
//
// The track names ride per span, not once per shard, so a shard whose spans
// name another track round-trips exactly. Records are in record (Seq) order,
// not Start order: an MPI span is recorded at its end, an edge carries the
// source-side time as Start.
//
// Packer.pack writes the layout and ShardReader reads it; nothing else knows
// it.

// minSpanBytes is the least a span record occupies: thirteen one-byte fields.
const minSpanBytes = 13

// Packer is the scratch shards are packed through — a daemon's, a timeline's
// (for shards handed over as materialised spans), a test's. The zero value is
// ready to use, by one goroutine at a time.
type Packer struct {
	w packed.Writer
	// buf is where a shard is packed before it is copied out at its exact
	// size, so a shard costs one allocation however large it grows.
	buf []byte
}

// PackShard appends sh's packed form to out: the bytes it carries, or its
// materialised Spans packed. It only reads sh.
func (p *Packer) PackShard(out []byte, sh *Shard) []byte {
	if sh.packed != nil {
		return append(out, sh.packed...)
	}
	out, _ = p.pack(out, sh, sh.Spans, nil)
	return out
}

// seal gives sh its packed form: the spans a and b (a ring's two halves, or a
// slice and nothing) packed under sh's header, in an exact-size copy.
func (p *Packer) seal(sh *Shard, a, b []Span) {
	p.buf, sh.first = p.pack(p.buf[:0], sh, a, b)
	sh.packed = append(make([]byte, 0, len(p.buf)), p.buf...)
}

// pack appends the packed form of sh's header and the spans a then b, and
// returns the smallest Seq among them (all ones when there are none).
func (p *Packer) pack(out []byte, sh *Shard, a, b []Span) ([]byte, uint64) {
	w, parts := &p.w, [2][]Span{a, b}
	w.Reset()
	hdr := [3]uint64{w.Intern(sh.Daemon), w.Intern(sh.Proc), w.Intern(sh.Node)}
	// Intern first: the dictionary precedes the records.
	for _, part := range parts {
		for i := range part {
			s := &part[i]
			w.Recs = append(w.Recs, [5]uint64{w.Intern(s.Proc), w.Intern(s.Node), w.Intern(s.Name), w.Intern(s.Peer), w.Intern(s.Obj)})
		}
	}
	out = w.Head(out, len(a)+len(b))
	for _, x := range hdr {
		out = binary.AppendUvarint(out, x)
	}
	out = binary.AppendVarint(out, sh.Dropped)
	out = binary.AppendVarint(out, sh.OutboxLost)
	var prevSeq uint64
	var prevStart sim.Time
	first, rec := ^uint64(0), 0
	for _, part := range parts {
		for i := range part {
			s := &part[i]
			kw := uint64(s.Kind) << 1
			if s.Wait {
				kw |= 1
			}
			out = binary.AppendUvarint(out, kw)
			for _, x := range w.Recs[rec] {
				out = binary.AppendUvarint(out, x)
			}
			rec++
			// Differences wrap, so any pair of values round-trips exactly.
			out = binary.AppendVarint(out, int64(s.Seq-prevSeq))
			prevSeq = s.Seq
			out = binary.AppendVarint(out, int64(s.Start-prevStart))
			prevStart = s.Start
			out = binary.AppendVarint(out, int64(s.End-s.Start))
			out = binary.AppendVarint(out, int64(s.Depth))
			out = binary.AppendVarint(out, int64(s.Tag))
			out = binary.AppendVarint(out, int64(s.Bytes))
			out = binary.AppendUvarint(out, s.Flow)
			first = min(first, s.Seq)
		}
	}
	return out, first
}

// ShardReader walks one packed shard, record by record. Verifying,
// materialising and iterating a shard are all this walk — keeping nothing,
// collecting, or looking at each record in turn — so hostile input meets one
// decoder: every read is bounds-checked, the first failure sticks and ends the
// walk, and Close reports it (or bytes left over).
type ShardReader struct {
	r      packed.Reader
	left   int // records not yet read
	lostAt int // where the header's OutboxLost field lies
	seq    uint64
	start  sim.Time
	first  uint64 // smallest Seq read so far
}

// ReadShard reads a packed shard's head — record count, dictionary, header —
// and returns a reader at the first record and the header (no Spans, no packed
// form). The strings are resolved through t, so a shard whose strings t has met
// allocates nothing; with a nil t the walk resolves none and every string
// reads "".
func ReadShard(t *packed.Table, data []byte) (c ShardReader, sh Shard) {
	c.r, c.left = packed.Open(t, data, "session: corrupt trace shard", minSpanBytes)
	sh.Daemon, sh.Proc, sh.Node = c.r.Str(), c.r.Str(), c.r.Str()
	sh.Dropped = c.r.Varint()
	c.lostAt = c.r.Pos
	sh.OutboxLost = c.r.Varint()
	c.first = ^uint64(0)
	return c, sh
}

// Next decodes the next record into s (every field is overwritten; the
// strings are the dictionary's) and reports whether there was one.
func (c *ShardReader) Next(s *Span) bool {
	r := &c.r
	if c.left == 0 || r.Err != nil {
		return false
	}
	c.left--
	kw := r.Uvarint()
	if kw>>1 > uint64(MarkEvent) {
		r.Fail("unknown span kind %d", kw>>1)
		return false
	}
	s.Kind, s.Wait = Kind(kw>>1), kw&1 != 0
	s.Proc, s.Node, s.Name, s.Peer, s.Obj = r.Str(), r.Str(), r.Str(), r.Str(), r.Str()
	c.seq += uint64(r.Varint())
	s.Seq = c.seq
	c.start += sim.Time(r.Varint())
	s.Start = c.start
	s.End = s.Start + sim.Time(r.Varint())
	s.Depth, s.Tag, s.Bytes = int(r.Varint()), int(r.Varint()), int(r.Varint())
	s.Flow = r.Uvarint()
	c.first = min(c.first, s.Seq)
	return r.Err == nil
}

// Close reports the first thing wrong with the shard's bytes, if anything.
func (c *ShardReader) Close() error { return c.r.Close() }

// verify walks the whole shard keeping nothing.
func (c *ShardReader) verify() error {
	var s Span
	for c.Next(&s) {
	}
	return c.Close()
}

// VerifyShard is the verifying walk alone: nil, or the first thing wrong with
// the bytes. It allocates nothing.
func VerifyShard(data []byte) error {
	c, _ := ReadShard(nil, data)
	return c.verify()
}

// OpenShard verifies a received shard and returns it in its packed form: the
// header fields resolved through t, the bytes in an exact-size copy (data may
// be a reader's reused buffer), Spans left nil.
func OpenShard(t *packed.Table, data []byte) (Shard, error) {
	sh, err := KeepShard(t, data)
	if err == nil {
		sh.packed = append(make([]byte, 0, len(data)), data...)
	}
	return sh, err
}

// KeepShard is OpenShard without the copy: the shard's packed form is data
// itself, which nothing may write again — an archive read's slab of a chunk's
// blobs.
func KeepShard(t *packed.Table, data []byte) (Shard, error) {
	c, sh := ReadShard(t, data)
	if err := c.verify(); err != nil {
		return Shard{}, err
	}
	sh.first = c.first
	sh.packed = data
	return sh, nil
}

// UnpackShard is the materialising decode: the shard with its Spans in a
// fresh slice (nil for a shard without spans) and no packed form — what a
// test, or a consumer that wants a []Span, reads a shard through.
func UnpackShard(t *packed.Table, data []byte) (Shard, error) {
	c, sh := ReadShard(t, data)
	if c.left > 0 && c.r.Err == nil {
		sh.Spans = make([]Span, c.left)
	}
	for i := 0; i < len(sh.Spans) && c.Next(&sh.Spans[i]); i++ {
	}
	if err := c.Close(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Len returns the number of spans the shard holds, in either form.
func (sh *Shard) Len() int {
	if sh.packed == nil {
		return len(sh.Spans)
	}
	n, _ := binary.Uvarint(sh.packed)
	return int(n)
}

// Packed returns the shard's packed form — what a frame and an archive chunk
// carry. A shard built from materialised Spans is packed on the spot.
func (sh *Shard) Packed() []byte {
	if sh.packed == nil {
		return new(Packer).PackShard(nil, sh)
	}
	return sh.packed
}

// StampOutboxLost sets the one header field that is only known when the
// shard leaves its daemon — evictions may have happened while it was queued —
// rewriting the field in the packed form, and nothing else, if it moved.
func (sh *Shard) StampOutboxLost(n int64) {
	if sh.packed != nil && n != sh.OutboxLost {
		c, _ := ReadShard(nil, sh.packed)
		b := make([]byte, 0, len(sh.packed)+binary.MaxVarintLen64)
		b = append(b, sh.packed[:c.lostAt]...)
		b = binary.AppendVarint(b, n)
		sh.packed = append(b, sh.packed[c.r.Pos:]...)
	}
	sh.OutboxLost = n
}
