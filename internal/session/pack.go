package session

import (
	"encoding/binary"
	"math"
	"slices"

	"pperf/internal/datasource"
	"pperf/internal/packed"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// The packed form of a sample batch — what the TCP frame carries (frontend)
// and the archive chunk stores (perfdb), so neither plane reflects over a
// []Sample — and of an archive chunk's other events (PackEvents, below). (A
// trace shard's packed form is trace's own: trace/codec.go.)
// After the head every packed blob starts with (internal/packed) a batch is
// n records of
//
//	uvarint metricIdx, codeIdx, machineIdx, syncIdx, procIdx
//	zigzag delta of Time vs the previous sample (first vs 0)
//	uvarint Float64bits(Delta), then of Value, XOR the previous sample's
//
// XOR-with-previous float bits round-trips floats exactly; an arithmetic
// delta of float64s does not.

// Packer is the scratch one sender or one archive writer packs sample batches
// and event sections through. The zero value is ready to use, by one
// goroutine at a time.
type Packer struct {
	w    packed.Writer
	recs []byte // an event section's records, before its dictionary is complete
}

// PackSamples appends one encoded sample batch to out.
func (p *Packer) PackSamples(out []byte, batch []datasource.Sample) []byte {
	w := &p.w
	w.Reset()
	// Intern first: the dictionary precedes the records.
	for i := range batch {
		sm := &batch[i]
		f := &sm.Focus
		w.Recs = append(w.Recs, [5]uint64{w.Intern(sm.Metric), w.Intern(f.CodePath), w.Intern(f.MachinePath), w.Intern(f.SyncPath), w.Intern(sm.Proc)})
	}
	out = w.Head(out, len(batch))
	var prevT int64
	var prevDelta, prevValue uint64
	for i := range batch {
		sm := &batch[i]
		for _, x := range w.Recs[i] {
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

// Unpacker decodes sample batches for one reader — one archive read, one
// listener connection — through one string table, which the reader's trace
// shards are opened with too. The zero value is ready to use, by one
// goroutine at a time.
type Unpacker struct {
	packed.Table
	check []datasource.Sample // what KeepSamples decodes a batch into
}

const corruptBatch = "session: corrupt sample batch"

// UnpackSamplesInto decodes a packed sample batch into dst's backing array
// when it is large enough (every field of every record is overwritten), and
// into a fresh slice otherwise: a reader done with one batch before it
// decodes the next hands the last result back and, once the table has seen
// the strings, allocates nothing.
func (u *Unpacker) UnpackSamplesInto(dst []datasource.Sample, data []byte) ([]datasource.Sample, error) {
	c, n := packed.Open(&u.Table, data, corruptBatch, 8)
	out := sized(dst, n)
	unpackRecords(&c, out)
	if err := c.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// sized returns dst with length n when its backing array holds n, a fresh
// slice otherwise.
func sized(dst []datasource.Sample, n int) []datasource.Sample {
	if cap(dst) < n || dst == nil {
		return make([]datasource.Sample, n)
	}
	return dst[:n]
}

// unpackRecords decodes len(out) sample records from c into out, up to c's
// first error.
func unpackRecords(c *packed.Reader, out []datasource.Sample) {
	var prevT int64
	var prevDelta, prevValue uint64
	for i := 0; i < len(out) && c.Err == nil; i++ {
		sm, f := &out[i], &out[i].Focus
		sm.Metric, f.CodePath, f.MachinePath, f.SyncPath, sm.Proc = c.Str(), c.Str(), c.Str(), c.Str(), c.Str()
		prevT += c.Varint()
		sm.Time = sim.Time(prevT)
		prevDelta ^= c.Uvarint()
		sm.Delta = math.Float64frombits(prevDelta)
		prevValue ^= c.Uvarint()
		sm.Value = math.Float64frombits(prevValue)
	}
}

// PackedBatch is a sample batch kept in its packed form. An archive read
// keeps every batch it loads as one (perfdb.ReadArchive), so a loaded archive
// costs its packed bytes rather than a 104-byte Sample per sample; a replay
// decodes each batch when it applies it (ReplaySource), and an archive writer
// copies its bytes as they are. It is read-only once kept, so any number of
// replays may decode it at once.
type PackedBatch struct {
	// Data is the batch as PackSamples wrote it, dictionary and all.
	Data []byte
	// Dict is its dictionary, resolved when the batch was kept.
	Dict   []string
	newest sim.Time // the newest sample time in it; 0 when it is empty
	recs   int32    // where its records start in Data
	n      int32    // its samples
}

// KeepSamples checks a packed sample batch the way UnpackSamplesInto decodes
// it, with the same errors, and sets b to keep it packed: b.Data is data, and
// b.Dict is its dictionary, resolved through u's table and appended to dicts,
// which it returns. The caller keeps data and dicts unchanged for as long as
// it keeps b.
func (u *Unpacker) KeepSamples(b *PackedBatch, data []byte, dicts []string) ([]string, error) {
	c, n := packed.Open(&u.Table, data, corruptBatch, 8)
	recs := c.Pos
	u.check = slices.Grow(u.check[:0], n)[:n]
	unpackRecords(&c, u.check)
	if err := c.Close(); err != nil {
		return dicts, err
	}
	var newest sim.Time
	for i := range u.check {
		if t := u.check[i].Time; i == 0 || t > newest {
			newest = t
		}
	}
	start := len(dicts)
	dicts = append(dicts, c.Dict...)
	*b = PackedBatch{Data: data, Dict: dicts[start:len(dicts):len(dicts)], newest: newest, recs: int32(recs), n: int32(n)}
	return dicts, nil
}

// Unpack decodes the batch into dst's backing array when it is large enough,
// into a fresh slice otherwise. KeepSamples checked every record, so the walk
// checks nothing and cannot fail: a replay decodes each batch once per replay,
// and a what-if grid replays an archive many times.
func (b *PackedBatch) Unpack(dst []datasource.Sample) []datasource.Sample {
	out := sized(dst, int(b.n))
	data, dict, pos := b.Data, b.Dict, int(b.recs)
	var prevT int64
	var prevDelta, prevValue, x uint64
	for i := range out {
		sm, f := &out[i], &out[i].Focus
		x, pos = uvarint(data, pos)
		sm.Metric = dict[x]
		x, pos = uvarint(data, pos)
		f.CodePath = dict[x]
		x, pos = uvarint(data, pos)
		f.MachinePath = dict[x]
		x, pos = uvarint(data, pos)
		f.SyncPath = dict[x]
		x, pos = uvarint(data, pos)
		sm.Proc = dict[x]
		x, pos = uvarint(data, pos)
		prevT += int64(x>>1) ^ -int64(x&1)
		sm.Time = sim.Time(prevT)
		x, pos = uvarint(data, pos)
		prevDelta ^= x
		sm.Delta = math.Float64frombits(prevDelta)
		x, pos = uvarint(data, pos)
		prevValue ^= x
		sm.Value = math.Float64frombits(prevValue)
	}
	return out
}

// uvarint reads the varint at data[pos] of a checked batch and returns the
// position after it. A one-byte value, what a dictionary index nearly always
// is, is a load and a compare.
func uvarint(data []byte, pos int) (uint64, int) {
	if c := data[pos]; c < 0x80 {
		return uint64(c), pos + 1
	}
	return uvarintTail(data, pos)
}

// uvarintTail reads a varint of two bytes or more; the batch's check
// already refused one that overflows or runs off the end.
func uvarintTail(data []byte, pos int) (x uint64, next int) {
	for s := uint(0); ; s += 7 {
		c := data[pos]
		pos++
		if c < 0x80 {
			return x | uint64(c)<<s, pos
		}
		x |= uint64(c&0x7f) << s
	}
}

// An archive chunk's other events — enables, updates, barriers, stale
// verdicts, gaps, undelivered counts — pack into one blob. After the head
// each is a zigzag Kind, a uvarint mask of its non-zero scalar fields (bit j:
// field j of eventFields) and those fields, a dictionary index per string and
// a zigzag varint per integer: every field of the flat union round-trips, and
// a barrier is two bytes.

const nStrs, nInts = 14, 6

// eventFields returns ev's scalar fields in record order. A stale verdict's
// daemon and time ride in Update but keep string slot 11 and integer slot 2,
// their slots in the format, so its records keep their bytes.
func eventFields(ev *Event) ([nStrs]string, [nInts]int64) {
	u, f := &ev.Update, &ev.Focus
	daemon, at, staleDaemon, staleAt := u.Daemon, u.Time, "", sim.Time(0)
	if ev.Kind == EvStale {
		daemon, at, staleDaemon, staleAt = "", 0, u.Daemon, u.Time
	}
	return [...]string{u.Path, u.Display, u.Proc, u.Caller, u.Callee, daemon, ev.Metric, f.CodePath, f.MachinePath, f.SyncPath, ev.Err, staleDaemon, ev.Proc, ev.Gap.Node},
		[...]int64{int64(u.Kind), int64(at), int64(staleAt), ev.N, int64(ev.Gap.From), int64(ev.Gap.To)}
}

// PackEvents appends one encoded event section to out. Sample batches and
// trace shards have packed forms of their own and do not belong in one.
func (p *Packer) PackEvents(out []byte, evs []Event) []byte {
	p.w.Reset()
	recs := p.recs[:0] // the dictionary, complete only at the end, goes first
	for i := range evs {
		strs, ints := eventFields(&evs[i])
		var mask uint64
		var vals [nStrs + nInts]uint64
		for j, s := range strs {
			if s != "" {
				mask, vals[j] = mask|1<<j, p.w.Intern(s)
			}
		}
		for j, x := range ints {
			if x != 0 {
				mask, vals[nStrs+j] = mask|1<<(nStrs+j), uint64(x<<1^x>>63)
			}
		}
		recs = binary.AppendUvarint(binary.AppendVarint(recs, int64(evs[i].Kind)), mask)
		for j, v := range vals {
			if mask&(1<<j) != 0 {
				recs = binary.AppendUvarint(recs, v)
			}
		}
	}
	p.recs = recs
	return append(p.w.Head(out, len(evs)), recs...)
}

// UnpackEventsInto decodes a packed event section the way UnpackSamplesInto
// decodes a batch: into dst's backing array when it is large enough (every
// field of every event is overwritten), into a fresh slice otherwise.
func (u *Unpacker) UnpackEventsInto(dst []Event, data []byte) ([]Event, error) {
	c, n := packed.Open(&u.Table, data, "session: corrupt event section", 2)
	out := dst
	if cap(out) < n || out == nil {
		out = make([]Event, n)
	}
	out = out[:n]
	for i := 0; i < n && c.Err == nil; i++ {
		kind, mask := EventKind(c.Varint()), c.Uvarint()
		if kind == EvSamples || kind == EvShard || mask >= 1<<(nStrs+nInts) {
			c.Fail("%v event with field mask %#x at record %d", kind, mask, i)
		}
		var s [nStrs]string
		var x [nInts]int64
		for j := range nStrs + nInts {
			switch {
			case mask&(1<<j) == 0:
			case j < nStrs:
				s[j] = c.Str()
			default:
				x[j-nStrs] = c.Varint()
			}
		}
		daemon, at := s[5], x[1]
		// Slots 11 and 2 hold a stale verdict's daemon and time (eventFields);
		// what another kind holds there, or a stale verdict in slots 5 and 1,
		// no Event field carries.
		if kind == EvStale {
			daemon, at = s[11], x[2]
		}
		out[i] = Event{Kind: kind,
			Update: datasource.Update{Kind: datasource.UpdateKind(x[0]), Path: s[0], Display: s[1], Proc: s[2], Caller: s[3], Callee: s[4], Daemon: daemon, Time: sim.Time(at)},
			Metric: s[6], Focus: resource.Focus{CodePath: s[7], MachinePath: s[8], SyncPath: s[9]},
			Err: s[10], Proc: s[12], N: x[3],
			Gap: datasource.Gap{Node: s[13], From: sim.Time(x[4]), To: sim.Time(x[5])}}
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
