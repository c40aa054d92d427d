package pperfmark

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRunInfo: arbitrary bytes in an archive's Extra decode to a run
// description or an error, never a panic, and whatever decodes packs to a
// record that decodes to the same description (every threshold that decodes
// lies in (0, 1], so no NaN spoils the comparison) and to the same bytes.
func FuzzRunInfo(f *testing.F) {
	res, opt, pc := fullRun()
	for _, b := range [][]byte{packRun(res, opt, pc), packRun(&Result{}, RunOptions{}, ScaledPCConfig())} {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, opt, pc, err := unpackRun(data)
		if err != nil {
			return
		}
		packed := packRun(res, opt, pc)
		res2, opt2, pc2, err := unpackRun(packed)
		if err != nil {
			t.Fatalf("a decoded description packs to a record that does not decode: %v", err)
		}
		if !reflect.DeepEqual(res2, res) || !reflect.DeepEqual(opt2, opt) || pc2 != pc {
			t.Fatalf("a decoded description changes on its way through its record:\n%+v %+v %+v\n%+v %+v %+v", res, opt, pc, res2, opt2, pc2)
		}
		if !bytes.Equal(packRun(res2, opt2, pc2), packed) {
			t.Fatalf("a decoded description packs to other bytes the second time")
		}
	})
}
