package pperfmark

import (
	"maps"
	"reflect"
	"strings"
	"testing"
)

// FuzzRunInfo: arbitrary Meta pairs in an archive header decode to a run
// description or an error, never a panic, and whatever decodes stamps to a
// record that decodes to the same description (every threshold that decodes
// lies in (0, 1], so no NaN spoils the comparison) and stamps to the same
// pairs. The input is the pairs as "key=value" joined by NUL bytes.
func FuzzRunInfo(f *testing.F) {
	join := func(meta map[string]string) string {
		var pairs []string
		for _, k := range sortedKeys(meta) {
			pairs = append(pairs, k+"="+meta[k])
		}
		return strings.Join(pairs, "\x00")
	}
	res, opt, pc := fullRun()
	for _, s := range []string{join(stamped(res, opt, pc, 3)), join(stamped(&Result{}, RunOptions{}, ScaledPCConfig(), 0))} {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Add("")
	f.Add("impl=MPICH\x00pc-eval=1\x00pc-sync=1\x00pc-io=1\x00pc-cpu=1e-300\x00fault-log=\n\n")
	f.Fuzz(func(t *testing.T, data string) {
		meta := map[string]string{}
		for _, pair := range strings.Split(data, "\x00") {
			k, v, _ := strings.Cut(pair, "=")
			meta[k] = v
		}
		res, opt, pc, err := decodeRun(meta)
		if err != nil {
			return
		}
		again := stamped(res, opt, pc, 3)
		res2, opt2, pc2, err := decodeRun(again)
		if err != nil {
			t.Fatalf("a decoded description stamps to a record that does not decode: %v", err)
		}
		if !reflect.DeepEqual(res2, res) || !reflect.DeepEqual(opt2, opt) || pc2 != pc {
			t.Fatalf("a decoded description changes on its way through its record:\n%+v %+v %+v\n%+v %+v %+v", res, opt, pc, res2, opt2, pc2)
		}
		if !maps.Equal(stamped(res2, opt2, pc2, 3), again) {
			t.Fatalf("a decoded description stamps to other pairs the second time")
		}
	})
}
