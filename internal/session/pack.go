package session

import (
	"encoding/binary"
	"math"

	"pperf/internal/datasource"
	"pperf/internal/packed"
	"pperf/internal/sim"
)

// The packed form of a sample batch — what the TCP frame carries (frontend)
// and the archive chunk stores (perfdb), so neither plane reflects over a
// []Sample. (A trace shard's packed form is trace's own: trace/codec.go.)
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
// through. The zero value is ready to use, by one goroutine at a time.
type Packer struct{ w packed.Writer }

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
	c, n := packed.Open(&u.Table, data, "sample batch", 8)
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
