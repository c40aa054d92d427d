// Package packed holds what the tool's two packed forms share — session's
// sample batches and trace's shards, the bulky report kinds a TCP frame
// carries and an archive chunk stores. Their fields are massively redundant:
// a handful of distinct strings, timestamps that advance in small steps,
// counters that move by small amounts. Both forms exploit that the same way:
// a per-blob string dictionary and zigzag-varint deltas against the previous
// record. Every blob starts
//
//	uvarint n                  records (samples or spans)
//	uvarint dictLen; entries:  uvarint len + bytes, in first-use order
//
// and continues with whatever its owner writes (session/pack.go,
// trace/codec.go). This package is that head, the varint cursor and the
// string table a reader resolves dictionaries through.
package packed

import (
	"encoding/binary"
	"fmt"
)

// Writer is the scratch one sender or one archive writer packs through: the
// dictionary index and the per-record index rows are reused from blob to
// blob, so packing costs nothing beyond the bytes it appends. The zero value
// is ready to use, by one goroutine at a time.
type Writer struct {
	idx  map[string]uint64
	dict []string
	Recs [][5]uint64 // one row of dictionary indexes per record
}

// Reset empties the dictionary and the index rows for the next blob.
func (w *Writer) Reset() {
	if w.idx == nil {
		w.idx = map[string]uint64{}
	}
	clear(w.idx)
	w.dict, w.Recs = w.dict[:0], w.Recs[:0]
}

// Intern returns s's dictionary index, adding it on first use.
func (w *Writer) Intern(s string) uint64 {
	if i, ok := w.idx[s]; ok {
		return i
	}
	i := uint64(len(w.dict))
	w.idx[s] = i
	w.dict = append(w.dict, s)
	return i
}

// Head appends the record count and the dictionary interned so far.
func (w *Writer) Head(out []byte, n int) []byte {
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(len(w.dict)))
	for _, s := range w.dict {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// MaxInterned caps a Table (real vocabularies are a few hundred strings):
// past it a string is still decoded, just not shared, so a peer or an archive
// feeding ever-fresh names reaches a steady state.
const MaxInterned = 4096

// Table is the string table of one reader — one archive read, one listener
// connection, one export: every dictionary entry of every blob opened with
// it resolves through it, so everything the reader decodes shares one copy
// of each name, and a blob whose strings it has met allocates nothing for
// them (a map lookup keyed by string(b) does not materialise the string);
// the strings a blob brings share one allocation.
// The zero value is ready to use, by one goroutine at a time.
type Table struct {
	strs map[string]string
	dict []string // the current blob's dictionary, reused
}

// resolve sets t.dict to the n entries of dict, a blob's dictionary bytes
// (each entry its uvarint length, then its bytes), Open has bounds-checked.
// The entries the table lacks share one new string, so a blob's dictionary
// costs at most one allocation.
func (t *Table) resolve(dict []byte, n uint64) {
	var all string
	t.dict = t.dict[:0]
	for pos := 0; uint64(len(t.dict)) < n; {
		l, w := binary.Uvarint(dict[pos:])
		pos += w
		s, ok := t.strs[string(dict[pos:pos+int(l)])]
		if !ok {
			if all == "" {
				all = string(dict)
			}
			s = all[pos : pos+int(l)]
			if len(t.strs) < MaxInterned {
				if t.strs == nil {
					t.strs = map[string]string{}
				}
				t.strs[s] = s
			}
		}
		t.dict = append(t.dict, s)
		pos += int(l)
	}
}

// Reader reads one blob. Every read is bounds-checked and the first failure
// sticks (later reads return zero values), so corrupt or truncated input
// yields an error, never a panic.
type Reader struct {
	Data []byte
	Pos  int
	// Dict is the blob's dictionary, valid until the table that resolved it
	// opens another blob; nil when the blob was opened without a table, and
	// Str then checks indexes against dictLen and returns "".
	Dict    []string
	dictLen uint64
	what    string // the error text's head: "session: corrupt sample batch"
	Err     error
}

// Fail records the blob's first error.
func (r *Reader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf(r.what+": "+format, args...)
	}
	r.Pos = len(r.Data)
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.Data[r.Pos:])
	if n <= 0 {
		r.Fail("bad varint at byte %d", r.Pos)
		return 0
	}
	r.Pos += n
	return v
}

// Varint reads a zigzag-encoded signed value (binary.AppendVarint's form).
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Str reads a dictionary index and returns the string it names.
func (r *Reader) Str() string {
	i := r.Uvarint()
	if i >= r.dictLen {
		r.Fail("dictionary index %d of %d", i, r.dictLen)
		return ""
	}
	if r.Dict == nil {
		return ""
	}
	return r.Dict[i]
}

// Open reads a blob's record count and dictionary, resolving the entries
// through t — or, with a nil t, only measuring them: a walk that needs no
// string. what heads every error the blob reports. Counts the input cannot
// hold (a dictionary entry needs at least its length byte, a record at least
// minRecord bytes) are refused before anything is allocated for them.
func Open(t *Table, data []byte, what string, minRecord int) (r Reader, n int) {
	r = Reader{Data: data, what: what}
	n64, dictLen := r.Uvarint(), r.Uvarint()
	if dictLen > uint64(len(data)) {
		r.Fail("dictionary of %d entries in %d bytes", dictLen, len(data))
	}
	if n64 > uint64(len(data)/minRecord) {
		r.Fail("%d records in %d bytes", n64, len(data))
	}
	start := r.Pos
	for ; r.dictLen < dictLen && r.Err == nil; r.dictLen++ {
		l := r.Uvarint()
		if l > uint64(len(data)-r.Pos) {
			r.Fail("dictionary entry %d overruns input", r.dictLen)
			break
		}
		r.Pos += int(l)
	}
	if t != nil && r.Err == nil {
		t.resolve(data[start:r.Pos], dictLen)
		r.Dict = t.dict
	}
	if r.Err != nil {
		n64 = 0 // nothing to allocate for
	}
	return r, int(n64)
}

// Close reports the blob's first error; bytes left over are one.
func (r *Reader) Close() error {
	if r.Err == nil && r.Pos != len(r.Data) {
		r.Fail("%d trailing bytes", len(r.Data)-r.Pos)
	}
	return r.Err
}
