package session

import (
	"encoding/binary"
	"fmt"
	"math"

	"pperf/internal/datasource"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// The packed forms of the two bulky report kinds — what the TCP frame
// carries (frontend) and the archive chunk stores (perfdb), so neither plane
// reflects over a []Sample or a []Span. Sample batches and trace shards
// dominate both, and their fields are massively redundant: a handful of
// distinct strings, timestamps that advance in small steps, counters that
// move by small amounts. Both forms exploit that the same way: a per-blob
// string dictionary, zigzag-varint deltas against the previous record, and
// XOR-with-previous float bits (which round-trips floats exactly; an
// arithmetic delta of float64s does not). Every blob starts
//
//	uvarint n                  records (samples or spans)
//	uvarint dictLen; entries:  uvarint len + bytes, in first-use order
//
// and a sample batch continues with n records of
//
//	uvarint metricIdx, codeIdx, machineIdx, syncIdx, procIdx
//	zigzag delta of Time vs the previous sample (first vs 0)
//	uvarint Float64bits(Delta), then of Value, XOR the previous sample's
//
// a trace shard with its header and n records of
//
//	uvarint daemonIdx, procIdx, nodeIdx; zigzag Dropped, OutboxLost
//	uvarint Kind<<1 | Wait
//	uvarint procIdx, nodeIdx, nameIdx, peerIdx, objIdx
//	zigzag delta of Seq, of Start vs the previous span (first vs 0)
//	zigzag End-Start, Depth, Tag, Bytes; uvarint Flow
//
// The track names ride per span, not once per shard, so a shard whose spans
// name another track round-trips exactly.

// Packer is the scratch one sender or one archive writer packs through: the
// dictionary index and the per-record index rows are reused from blob to
// blob, so packing costs nothing beyond the bytes it appends. The zero value
// is ready to use, by one goroutine at a time.
type Packer struct {
	idx  map[string]uint64
	dict []string
	recs [][5]uint64 // one row of dictionary indexes per record
}

func (p *Packer) reset() {
	if p.idx == nil {
		p.idx = map[string]uint64{}
	}
	clear(p.idx)
	p.dict, p.recs = p.dict[:0], p.recs[:0]
}

func (p *Packer) intern(s string) uint64 {
	if i, ok := p.idx[s]; ok {
		return i
	}
	i := uint64(len(p.dict))
	p.idx[s] = i
	p.dict = append(p.dict, s)
	return i
}

// head appends the record count and the dictionary interned so far.
func (p *Packer) head(out []byte, n int) []byte {
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(len(p.dict)))
	for _, s := range p.dict {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// PackSamples appends one encoded sample batch to out.
func (p *Packer) PackSamples(out []byte, batch []datasource.Sample) []byte {
	p.reset()
	// Intern first: the dictionary precedes the records.
	for i := range batch {
		sm := &batch[i]
		f := &sm.Focus
		p.recs = append(p.recs, [5]uint64{p.intern(sm.Metric), p.intern(f.CodePath), p.intern(f.MachinePath), p.intern(f.SyncPath), p.intern(sm.Proc)})
	}
	out = p.head(out, len(batch))
	var prevT int64
	var prevDelta, prevValue uint64
	for i := range batch {
		sm := &batch[i]
		for _, x := range p.recs[i] {
			out = binary.AppendUvarint(out, x)
		}
		t := int64(sm.Time)
		out = binary.AppendVarint(out, t-prevT)
		prevT = t
		db := math.Float64bits(sm.Delta)
		out = binary.AppendUvarint(out, db^prevDelta)
		prevDelta = db
		vb := math.Float64bits(sm.Value)
		out = binary.AppendUvarint(out, vb^prevValue)
		prevValue = vb
	}
	return out
}

// PackShard appends one encoded trace shard to out. It only reads sh.
func (p *Packer) PackShard(out []byte, sh *trace.Shard) []byte {
	p.reset()
	hdr := [3]uint64{p.intern(sh.Daemon), p.intern(sh.Proc), p.intern(sh.Node)}
	for i := range sh.Spans {
		s := &sh.Spans[i]
		p.recs = append(p.recs, [5]uint64{p.intern(s.Proc), p.intern(s.Node), p.intern(s.Name), p.intern(s.Peer), p.intern(s.Obj)})
	}
	out = p.head(out, len(sh.Spans))
	for _, x := range hdr {
		out = binary.AppendUvarint(out, x)
	}
	out = binary.AppendVarint(out, sh.Dropped)
	out = binary.AppendVarint(out, sh.OutboxLost)
	var prevSeq uint64
	var prevStart sim.Time
	for i := range sh.Spans {
		s := &sh.Spans[i]
		kw := uint64(s.Kind) << 1
		if s.Wait {
			kw |= 1
		}
		out = binary.AppendUvarint(out, kw)
		for _, x := range p.recs[i] {
			out = binary.AppendUvarint(out, x)
		}
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
	}
	return out
}

// maxInterned caps an Unpacker's string table (real vocabularies are a few
// hundred strings): past it a string is still decoded, just not shared, so a
// peer or an archive feeding ever-fresh names reaches a steady state.
const maxInterned = 4096

// Unpacker decodes packed blobs for one reader — one archive read, one
// listener connection — through one string table: every dictionary entry of
// every blob resolves through it, so everything the reader decodes shares
// one copy of each name, and a blob whose strings it has met allocates
// nothing for them (a map lookup keyed by string(b) does not materialise the
// string). The zero value is ready to use, by one goroutine at a time.
type Unpacker struct {
	strs map[string]string
	dict []string // the current blob's dictionary, reused
}

func (u *Unpacker) intern(b []byte) string {
	if s, ok := u.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(u.strs) < maxInterned {
		if u.strs == nil {
			u.strs = map[string]string{}
		}
		u.strs[s] = s
	}
	return s
}

// cursor reads one blob. Every read is bounds-checked and the first failure
// sticks (later reads return zero values), so corrupt or truncated input
// yields an error, never a panic.
type cursor struct {
	data []byte
	pos  int
	dict []string
	what string // "sample batch" or "trace shard", for the error text
	err  error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("session: corrupt "+c.what+": "+format, args...)
	}
	c.pos = len(c.data)
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 {
		c.fail("bad varint at byte %d", c.pos)
		return 0
	}
	c.pos += n
	return v
}

// varint reads a zigzag-encoded signed value (binary.AppendVarint's form).
func (c *cursor) varint() int64 {
	u := c.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (c *cursor) str() string {
	i := c.uvarint()
	if i >= uint64(len(c.dict)) {
		c.fail("dictionary index %d of %d", i, len(c.dict))
		return ""
	}
	return c.dict[i]
}

// open reads a blob's record count and dictionary. Counts the input cannot
// hold (a dictionary entry needs at least its length byte, a record at least
// minRecord bytes) are refused before anything is allocated for them.
func (u *Unpacker) open(data []byte, what string, minRecord int) (c cursor, n int) {
	c = cursor{data: data, what: what}
	n64, dictLen := c.uvarint(), c.uvarint()
	if dictLen > uint64(len(data)) {
		c.fail("dictionary of %d entries in %d bytes", dictLen, len(data))
	}
	if n64 > uint64(len(data)/minRecord) {
		c.fail("%d records in %d bytes", n64, len(data))
	}
	dict := u.dict[:0]
	for i := uint64(0); i < dictLen && c.err == nil; i++ {
		l := c.uvarint()
		if l > uint64(len(data)-c.pos) {
			c.fail("dictionary entry %d overruns input", i)
			break
		}
		dict = append(dict, u.intern(data[c.pos:c.pos+int(l)]))
		c.pos += int(l)
	}
	u.dict, c.dict = dict, dict
	if c.err != nil {
		n64 = 0 // nothing to allocate for
	}
	return c, int(n64)
}

// close reports the blob's first error; bytes left over are one.
func (c *cursor) close() error {
	if c.err == nil && c.pos != len(c.data) {
		c.fail("%d trailing bytes", len(c.data)-c.pos)
	}
	return c.err
}

// UnpackSamples decodes a packed sample batch. The batch slice is the one
// allocation of a batch whose strings the table has seen.
func (u *Unpacker) UnpackSamples(data []byte) ([]datasource.Sample, error) {
	return u.UnpackSamplesInto(nil, data)
}

// UnpackSamplesInto is UnpackSamples into dst's backing array when it is
// large enough (every field of every record is overwritten): a reader done
// with one batch before it decodes the next hands the last result back and,
// once the table has seen the strings, allocates nothing.
func (u *Unpacker) UnpackSamplesInto(dst []datasource.Sample, data []byte) ([]datasource.Sample, error) {
	c, n := u.open(data, "sample batch", 8)
	out := dst
	if cap(out) < n || out == nil {
		out = make([]datasource.Sample, n)
	}
	out = out[:n]
	var prevT int64
	var prevDelta, prevValue uint64
	for i := 0; i < n && c.err == nil; i++ {
		sm, f := &out[i], &out[i].Focus
		sm.Metric, f.CodePath, f.MachinePath, f.SyncPath, sm.Proc = c.str(), c.str(), c.str(), c.str(), c.str()
		prevT += c.varint()
		sm.Time = sim.Time(prevT)
		prevDelta ^= c.uvarint()
		sm.Delta = math.Float64frombits(prevDelta)
		prevValue ^= c.uvarint()
		sm.Value = math.Float64frombits(prevValue)
	}
	if err := c.close(); err != nil {
		return nil, err
	}
	return out, nil
}

// UnpackShard decodes a packed trace shard. The span slice is the one
// allocation of a shard whose strings the table has seen; a shard without
// spans decodes with a nil slice.
func (u *Unpacker) UnpackShard(data []byte) (trace.Shard, error) {
	c, n := u.open(data, "trace shard", 13)
	var sh trace.Shard
	sh.Daemon, sh.Proc, sh.Node = c.str(), c.str(), c.str()
	sh.Dropped, sh.OutboxLost = c.varint(), c.varint()
	if n > 0 && c.err == nil {
		sh.Spans = make([]trace.Span, n)
	}
	var prevSeq uint64
	var prevStart sim.Time
	for i := 0; i < n && c.err == nil; i++ {
		s := &sh.Spans[i]
		kw := c.uvarint()
		if kw>>1 > uint64(trace.MarkEvent) {
			c.fail("unknown span kind %d", kw>>1)
			break
		}
		s.Kind, s.Wait = trace.Kind(kw>>1), kw&1 != 0
		s.Proc, s.Node, s.Name, s.Peer, s.Obj = c.str(), c.str(), c.str(), c.str(), c.str()
		prevSeq += uint64(c.varint())
		s.Seq = prevSeq
		prevStart += sim.Time(c.varint())
		s.Start = prevStart
		s.End = s.Start + sim.Time(c.varint())
		s.Depth, s.Tag, s.Bytes = int(c.varint()), int(c.varint()), int(c.varint())
		s.Flow = c.uvarint()
	}
	if err := c.close(); err != nil {
		return trace.Shard{}, err
	}
	return sh, nil
}
