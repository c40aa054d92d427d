package perfdb

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// FuzzChunkDecoder: the chunk cursor over arbitrary bytes must return an
// archive or an error — never panic, never allocate unboundedly from a
// corrupt length field — and its two uses must agree on every input: the
// collecting ReadArchive and the streaming pass of the verify step and
// OpenRun both fail with the same error, or both succeed with the same
// header, event count and truncated flag. What decodes round-trips:
// WriteArchive re-encodes it to bytes that decode to that header, event count
// and truncated flag again — a cut file to a file without a trailer.
func FuzzChunkDecoder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 40, 600} {
		var buf bytes.Buffer
		if err := WriteArchive(&buf, syntheticArchive(rng, n)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Seed some deliberate corruptions so coverage starts past the
		// magic check.
		mut := append([]byte(nil), buf.Bytes()...)
		mut[10] ^= 0xff
		f.Add(mut)
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	// Every event kind, traced, under Meta; the bare magic; and the retired
	// formats, which must be refused: the PPDBA1 magic in front of a current
	// archive, the two PPDBA1 fixtures, the v1 magic; and an archive of
	// event-schema version 1.
	var every bytes.Buffer
	if err := WriteArchive(&every, compatArchive()); err != nil {
		f.Fatal(err)
	}
	f.Add(every.Bytes())
	f.Add([]byte("PPDBA2"))
	f.Add([]byte{})
	f.Add(append([]byte("PPDBA1"), every.Bytes()[6:]...))
	for _, path := range []string{compatFixture, gobRestFixture} {
		if old, err := os.ReadFile(path); err == nil {
			f.Add(old)
		}
	}
	f.Add([]byte("PPARCH\x1f\xff\x81\x03\x01\x01\x06Header")) // retired v1 magic + a gob prefix
	if old, err := os.ReadFile(schemaV1Fixture); err == nil {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := readBothWays(t, data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteArchive(&buf, a); err != nil {
			t.Fatalf("re-encoding a decoded archive: %v", err)
		}
		b, err := ReadArchive(bytes.NewReader(buf.Bytes()))
		if err != nil || len(b.Events) != len(a.Events) || b.Truncated != a.Truncated || !reflect.DeepEqual(b.Header, a.Header) {
			t.Fatalf("%d events (truncated %v) under %+v re-encode to %+v, %v", len(a.Events), a.Truncated, a.Header, b, err)
		}
	})
}
