package session

import (
	"encoding/binary"
	"math"

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
type Unpacker struct{ packed.Table }

// UnpackSamplesInto decodes a packed sample batch into dst's backing array
// when it is large enough (every field of every record is overwritten), and
// into a fresh slice otherwise: a reader done with one batch before it
// decodes the next hands the last result back and, once the table has seen
// the strings, allocates nothing.
func (u *Unpacker) UnpackSamplesInto(dst []datasource.Sample, data []byte) ([]datasource.Sample, error) {
	c, n := packed.Open(&u.Table, data, "session: corrupt sample batch", 8)
	out := dst
	if cap(out) < n || out == nil {
		out = make([]datasource.Sample, n)
	}
	out = out[:n]
	var prevT int64
	var prevDelta, prevValue uint64
	for i := 0; i < n && c.Err == nil; i++ {
		sm, f := &out[i], &out[i].Focus
		sm.Metric, f.CodePath, f.MachinePath, f.SyncPath, sm.Proc = c.Str(), c.Str(), c.Str(), c.Str(), c.Str()
		prevT += c.Varint()
		sm.Time = sim.Time(prevT)
		prevDelta ^= c.Uvarint()
		sm.Delta = math.Float64frombits(prevDelta)
		prevValue ^= c.Uvarint()
		sm.Value = math.Float64frombits(prevValue)
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// An archive chunk's other events — enables, updates, barriers, stale
// verdicts, gaps, undelivered counts — pack into one blob. After the head
// each is a zigzag Kind, a uvarint mask of its non-zero scalar fields (bit j:
// field j of eventFields) and those fields, a dictionary index per string and
// a zigzag varint per integer: every field of the flat union round-trips, and
// a barrier is two bytes.

const nStrs, nInts = 14, 6

// eventFields returns ev's scalar fields in record order.
func eventFields(ev *Event) ([nStrs]string, [nInts]int64) {
	u, f := &ev.Update, &ev.Focus
	return [...]string{u.Path, u.Display, u.Proc, u.Caller, u.Callee, u.Daemon, ev.Metric, f.CodePath, f.MachinePath, f.SyncPath, ev.Err, ev.Daemon, ev.Proc, ev.Gap.Node},
		[...]int64{int64(u.Kind), int64(u.Time), int64(ev.Time), ev.N, int64(ev.Gap.From), int64(ev.Gap.To)}
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
		out[i] = Event{Kind: kind,
			Update: datasource.Update{Kind: datasource.UpdateKind(x[0]), Path: s[0], Display: s[1], Proc: s[2], Caller: s[3], Callee: s[4], Daemon: s[5], Time: sim.Time(x[1])},
			Metric: s[6], Focus: resource.Focus{CodePath: s[7], MachinePath: s[8], SyncPath: s[9]},
			Err: s[10], Daemon: s[11], Time: sim.Time(x[2]), Proc: s[12], N: x[3],
			Gap: datasource.Gap{Node: s[13], From: sim.Time(x[4]), To: sim.Time(x[5])}}
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
