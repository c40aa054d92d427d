package session

import (
	"encoding/binary"
	"hash/maphash"
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
}

const corruptBatch = "session: corrupt sample batch"

// UnpackSamplesInto decodes a packed sample batch into dst's backing array
// when it is large enough (every field of every record is overwritten), and
// into a fresh slice otherwise: a reader done with one batch before it
// decodes the next hands the last result back and, once the table has seen
// the strings, allocates nothing.
func (u *Unpacker) UnpackSamplesInto(dst []datasource.Sample, data []byte) ([]datasource.Sample, error) {
	c, n := packed.Open(&u.Table, data, corruptBatch, 8)
	out := dst
	if cap(out) < n || out == nil {
		out = make([]datasource.Sample, n)
	}
	out = out[:n]
	unpackRecords(&c, out)
	if err := c.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// readRecord reads and checks one sample record: its five dictionary
// indexes, its time's delta and the bits of its delta and value, each XOR
// the previous sample's.
func readRecord(c *packed.Reader) (idx [5]uint64, dt int64, delta, value uint64) {
	for k := range idx {
		idx[k] = c.Index()
	}
	return idx, c.Varint(), c.Uvarint(), c.Uvarint()
}

// unpackRecords decodes len(out) sample records from c into out, up to c's
// first error.
func unpackRecords(c *packed.Reader, out []datasource.Sample) {
	var prevT int64
	var prevDelta, prevValue uint64
	for i := range out {
		idx, dt, delta, value := readRecord(c)
		if c.Err != nil {
			return
		}
		sm, f, d := &out[i], &out[i].Focus, c.Dict
		sm.Metric, f.CodePath, f.MachinePath, f.SyncPath, sm.Proc = d[idx[0]], d[idx[1]], d[idx[2]], d[idx[3]], d[idx[4]]
		prevT += dt
		sm.Time = sim.Time(prevT)
		prevDelta ^= delta
		sm.Delta = math.Float64frombits(prevDelta)
		prevValue ^= value
		sm.Value = math.Float64frombits(prevValue)
	}
}

// PackedBatch is a sample batch kept in its packed form. An archive read
// keeps every batch it loads as one (perfdb.ReadArchive), so a loaded archive
// costs its packed bytes rather than a 104-byte Sample per sample; a replay
// folds each batch by dictionary index when it applies it
// (datasource.View.ApplyIndexed), and an archive writer copies its bytes as
// they are. It is read-only once kept, so any number of replays may fold it
// at once.
type PackedBatch struct {
	// Data is the batch as PackSamples wrote it, dictionary and all.
	Data   []byte
	dict   *datasource.Dict // resolved and numbered when kept
	newest sim.Time         // the newest sample time in it; 0 when it is empty
	recs   int32            // where its records start in Data
	n      int32            // its samples
}

// KeepSamples checks a packed sample batch the way UnpackSamplesInto decodes
// it, with the same errors, and sets b to keep it packed, with data as b.Data
// and its Dict from kd. The caller keeps data unchanged for as long as it
// keeps b.
func (u *Unpacker) KeepSamples(b *PackedBatch, data []byte, kd *KeptDicts) error {
	c, n := packed.Open(&u.Table, data, corruptBatch, 8)
	recs, start := c.Pos, len(kd.tuples)
	var prevT int64
	var newest sim.Time
	for i := 0; i < n && c.Err == nil; i++ {
		idx, dt, _, _ := readRecord(&c)
		prevT += dt
		if t := sim.Time(prevT); i == 0 || t > newest {
			newest = t
		}
		kd.tuples = append(kd.tuples, idx)
	}
	if err := c.Close(); err != nil {
		kd.tuples = kd.tuples[:start]
		return err
	}
	_, head := binary.Uvarint(data) // the record count; the dictionary follows
	*b = PackedBatch{Data: data, dict: kd.keep(c.Dict, data[head:recs], start), newest: newest, recs: int32(recs), n: int32(n)}
	return nil
}

// KeptDicts holds the Dicts of the sample batches one archive read keeps
// (KeepSamples): one copy of each distinct dictionary, and one Dict per
// distinct sequence of index tuples over it, whose Targets number what each
// sample names, a canonical pair and a process. Reset readies kd for the next
// read; the zero value is ready to use.
type KeptDicts struct {
	tuples [][5]uint64 // the shapes' index tuples, then the kept batch's
	shapes []keptShape
	// at finds a shape by its dictionary's hash and by its dictionary's and
	// tuples' hash, so a batch costs two lookups, not a scan of the shapes.
	at        map[uint64]int32
	seed      maphash.Seed
	number    map[target]int32
	numbering *datasource.Numbering
	// The blocks the Dicts go in, which double: a read allocates per
	// doubling of what it keeps, not per batch.
	strBlock  block[string]
	tgtBlock  block[int32]
	dictBlock block[datasource.Dict]
}

// keptShape is a kept Dict and where its tuples are in KeptDicts.tuples.
type keptShape struct {
	d          *datasource.Dict
	start, end int
}

// target is what a sample names: a series and a process.
type target struct {
	datasource.Pair
	proc string
}

type block[T any] struct{ b []T }

func (k *block[T]) take(n int) []T {
	if cap(k.b)-len(k.b) < n {
		k.b = make([]T, 0, max(n, 2*cap(k.b), 64))
	}
	k.b = k.b[:len(k.b)+n]
	return k.b[len(k.b)-n : len(k.b) : len(k.b)]
}

// keep returns the Dict of the batch being kept, whose dictionary is dict,
// the table's scratch, packed as raw, and whose tuples are kd.tuples[start:].
// A hash only finds a candidate: a Dict or a dictionary is shared when its
// content is equal.
func (kd *KeptDicts) keep(dict []string, raw []byte, start int) *datasource.Dict {
	if kd.at == nil {
		kd.at, kd.number, kd.seed = map[uint64]int32{}, map[target]int32{}, maphash.MakeSeed()
	}
	if kd.numbering == nil {
		kd.numbering = new(datasource.Numbering)
	}
	const prime = 0x100000001b3
	seq, hd := kd.tuples[start:], maphash.Bytes(kd.seed, raw)
	hs := hd
	for _, x := range seq {
		for _, i := range x {
			hs = (hs ^ i) * prime
		}
	}
	sameDict := func(j int32, ok bool) bool { return ok && slices.Equal(kd.shapes[j].d.Strs, dict) }
	if j, ok := kd.at[hs]; sameDict(j, ok) && slices.Equal(kd.tuples[kd.shapes[j].start:kd.shapes[j].end], seq) {
		kd.tuples = kd.tuples[:start]
		return kd.shapes[j].d
	}
	j, d := int32(len(kd.shapes)), &kd.dictBlock.take(1)[0]
	*d = datasource.Dict{Targets: kd.tgtBlock.take(len(seq)), Numbering: kd.numbering}
	if o, ok := kd.at[hd]; sameDict(o, ok) {
		d.Strs = kd.shapes[o].d.Strs
	} else {
		d.Strs, kd.at[hd] = kd.strBlock.take(len(dict)), j
		copy(d.Strs, dict)
	}
	kd.at[hs], kd.shapes = j, append(kd.shapes, keptShape{d, start, len(kd.tuples)})
	for i, x := range seq {
		f := resource.Focus{CodePath: dict[x[1]], MachinePath: dict[x[2]], SyncPath: dict[x[3]]}
		k := target{datasource.Pair{Metric: dict[x[0]], Focus: f}.Canon(), dict[x[4]]}
		t, ok := kd.number[k]
		if !ok {
			t = int32(len(kd.number))
			kd.number[k] = t
		}
		d.Targets[i] = t
	}
	kd.numbering.N = len(kd.number)
	return d
}

// Reset empties kd for the next read, what a failed read left included.
func (kd *KeptDicts) Reset() {
	clear(kd.shapes)
	clear(kd.at)
	clear(kd.number)
	*kd = KeptDicts{tuples: kd.tuples[:0], shapes: kd.shapes[:0], at: kd.at, seed: kd.seed, number: kd.number}
}

// Dictionary and Walk make a kept batch a datasource.IndexedBatch.
func (b *PackedBatch) Dictionary() *datasource.Dict { return b.dict }

// Walk hands each sample's indexes, time and delta to f. KeepSamples checked
// every record, so the walk checks nothing and cannot fail: a what-if grid
// replays an archive many times.
func (b *PackedBatch) Walk(f *datasource.IndexedFold) {
	data, pos := b.Data, int(b.recs)
	var idx [5]uint64
	var prevT int64
	var prevDelta, x uint64
	for range b.n {
		for k := range idx {
			idx[k], pos = uvarint(data, pos)
		}
		x, pos = uvarint(data, pos)
		prevT += int64(x>>1) ^ -int64(x&1)
		x, pos = uvarint(data, pos)
		prevDelta ^= x
		_, pos = uvarint(data, pos) // the value, which no series folds
		f.Add(idx, sim.Time(prevT), math.Float64frombits(prevDelta))
	}
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
