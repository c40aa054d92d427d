// Package perfdb is the multi-run performance experiment store: chunked
// streaming session archives with delta-encoded sample batches and
// per-chunk CRC32 (this file and chunk.go), a bounded-memory recorder the
// live front end writes through (stream.go), an on-disk run index
// (store.go), and a cross-run diff engine that compares stored runs with
// the paper's §5.2.1.3 confidence-interval significance test (diff.go).
// See PERFDB.md.
package perfdb

import (
	"encoding/binary"
	"fmt"
	"math"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// Sample batches dominate archive volume, and their fields are massively
// redundant: a batch holds runs of samples for the same metric-focus pair,
// consecutive timestamps on the sampling grid, and values that move by
// small amounts. packSamples exploits all three with a per-batch string
// dictionary, zigzag-varint time deltas, and XOR-with-previous float bits
// (which round-trips floats exactly — an arithmetic delta of float64s does
// not). The result typically shrinks a batch several-fold before the
// chunk even reaches gob.

// packer is the scratch one Writer packs its sample batches through: the
// dictionary index and the per-sample index records are reused from batch to
// batch, so packing costs nothing beyond the bytes it appends.
type packer struct {
	idx  map[string]uint64
	dict []string
	recs [][5]uint64 // metric, code, machine, sync, proc dictionary indexes
}

func (p *packer) intern(s string) uint64 {
	if i, ok := p.idx[s]; ok {
		return i
	}
	i := uint64(len(p.dict))
	p.idx[s] = i
	p.dict = append(p.dict, s)
	return i
}

// pack appends one encoded sample batch to out:
//
//	uvarint n
//	uvarint dictLen; dict entries: uvarint len + bytes (first-use order)
//	per sample:
//	  uvarint metricIdx, codeIdx, machineIdx, syncIdx, procIdx
//	  zigzag-varint delta of Time vs the previous sample (first vs 0)
//	  uvarint Float64bits(Delta) XOR previous sample's Delta bits
//	  uvarint Float64bits(Value) XOR previous sample's Value bits
func (p *packer) pack(out []byte, batch []datasource.Sample) []byte {
	if p.idx == nil {
		p.idx = map[string]uint64{}
	}
	clear(p.idx)
	p.dict, p.recs = p.dict[:0], p.recs[:0]
	// First pass interns every string so the dictionary can be emitted
	// before the sample records.
	for i := range batch {
		sm := &batch[i]
		p.recs = append(p.recs, [5]uint64{
			p.intern(sm.Metric),
			p.intern(sm.Focus.CodePath),
			p.intern(sm.Focus.MachinePath),
			p.intern(sm.Focus.SyncPath),
			p.intern(sm.Proc),
		})
	}
	out = binary.AppendUvarint(out, uint64(len(batch)))
	out = binary.AppendUvarint(out, uint64(len(p.dict)))
	for _, s := range p.dict {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	var (
		prevT     int64
		prevDelta uint64
		prevValue uint64
	)
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

// strtab is the string table of one archive read. Every dictionary entry of
// every batch resolves through it, so the decoded samples of a whole archive
// share one copy of each metric, path and process name, and a batch whose
// strings the reader has met allocates nothing for them (a map lookup keyed
// by string(b) does not materialise the string). dict is the per-batch
// dictionary, reused. The zero value is ready to use.
type strtab struct {
	strs map[string]string
	dict []string
}

func (t *strtab) intern(b []byte) string {
	if s, ok := t.strs[string(b)]; ok {
		return s
	}
	if t.strs == nil {
		t.strs = map[string]string{}
	}
	s := string(b)
	t.strs[s] = s
	return s
}

// unpackSamples decodes a packed batch, resolving its strings through tab.
// Every read is bounds-checked: corrupt or truncated input yields an error,
// never a panic and never an oversized allocation.
func unpackSamples(data []byte, tab *strtab) ([]datasource.Sample, error) {
	pos := 0
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("perfdb: corrupt sample batch: bad uvarint at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	getI := func() (int64, error) {
		v, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("perfdb: corrupt sample batch: bad varint at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	n64, err := getU()
	if err != nil {
		return nil, err
	}
	dictLen, err := getU()
	if err != nil {
		return nil, err
	}
	// Sanity: every dictionary entry needs ≥ 1 length byte, every sample
	// ≥ 8 bytes of record; refuse counts the input cannot possibly hold
	// before allocating for them.
	if dictLen > uint64(len(data)) {
		return nil, fmt.Errorf("perfdb: corrupt sample batch: dictionary of %d entries in %d bytes", dictLen, len(data))
	}
	if n64 > uint64(len(data)) {
		return nil, fmt.Errorf("perfdb: corrupt sample batch: %d samples in %d bytes", n64, len(data))
	}
	dict := tab.dict[:0]
	for i := uint64(0); i < dictLen; i++ {
		l, err := getU()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(data)-pos) {
			return nil, fmt.Errorf("perfdb: corrupt sample batch: dictionary entry %d overruns input", i)
		}
		dict = append(dict, tab.intern(data[pos:pos+int(l)]))
		pos += int(l)
	}
	tab.dict = dict
	str := func() (string, error) {
		i, err := getU()
		if err != nil {
			return "", err
		}
		if i >= uint64(len(dict)) {
			return "", fmt.Errorf("perfdb: corrupt sample batch: dictionary index %d of %d", i, len(dict))
		}
		return dict[i], nil
	}
	out := make([]datasource.Sample, 0, n64)
	var (
		prevT     int64
		prevDelta uint64
		prevValue uint64
	)
	for i := uint64(0); i < n64; i++ {
		var sm datasource.Sample
		var f resource.Focus
		if sm.Metric, err = str(); err != nil {
			return nil, err
		}
		if f.CodePath, err = str(); err != nil {
			return nil, err
		}
		if f.MachinePath, err = str(); err != nil {
			return nil, err
		}
		if f.SyncPath, err = str(); err != nil {
			return nil, err
		}
		sm.Focus = f
		if sm.Proc, err = str(); err != nil {
			return nil, err
		}
		dt, err := getI()
		if err != nil {
			return nil, err
		}
		prevT += dt
		sm.Time = sim.Time(prevT)
		db, err := getU()
		if err != nil {
			return nil, err
		}
		prevDelta ^= db
		sm.Delta = math.Float64frombits(prevDelta)
		vb, err := getU()
		if err != nil {
			return nil, err
		}
		prevValue ^= vb
		sm.Value = math.Float64frombits(prevValue)
		out = append(out, sm)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("perfdb: corrupt sample batch: %d trailing bytes", len(data)-pos)
	}
	return out, nil
}
