package pperfmark

import (
	"bytes"
	"testing"
)

// FuzzRunInfo: arbitrary bytes in an archive's Extra decode to a run
// description or an error, never a panic, and whatever decodes packs to a
// record that decodes to the same description. (The packed records are
// compared: a NaN threshold is not DeepEqual to itself.)
func FuzzRunInfo(f *testing.F) {
	full := fullRunInfo()
	for _, info := range []runInfo{full, {PC: ScaledPCConfig()}} {
		b := info.pack()
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := unpackRunInfo(data)
		if err != nil {
			return
		}
		packed := info.pack()
		again, err := unpackRunInfo(packed)
		if err != nil {
			t.Fatalf("a decoded description packs to a record that does not decode: %v", err)
		}
		if !bytes.Equal(again.pack(), packed) {
			t.Fatalf("a decoded description changes on its way through its record:\n%+v\n%+v", info, again)
		}
	})
}
