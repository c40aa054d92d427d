package pperfmark

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzRunInfo: arbitrary Meta pairs in an archive header decode to a run
// description or an error, never a panic, and whatever decodes stamps to a
// record that decodes to the same description (every threshold that decodes
// lies in (0, 1], so no NaN spoils the comparison), so it stamps to the same
// pairs again. The input is the pairs as "key=value" joined by NUL bytes;
// the seeds hold a fault plan and spawn=attach.
func FuzzRunInfo(f *testing.F) {
	join := func(meta map[string]string) string {
		var pairs []string
		for _, k := range sortedKeys(meta) {
			pairs = append(pairs, k+"="+meta[k])
		}
		return strings.Join(pairs, "\x00")
	}
	for _, s := range []string{join(stamped(fullRun())), join(stamped(&Result{Spec: Spec{Program: "allcount", PCConfig: ScaledPCConfig()}}))} {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Add("")
	f.Add("program=allcount\x00impl=MPICH\x00pc-eval=1\x00pc-sync=1\x00pc-io=1\x00pc-cpu=1e-300\x00fault-log=\n\n")
	f.Fuzz(func(t *testing.T, data string) {
		meta := map[string]string{}
		for _, pair := range strings.Split(data, "\x00") {
			k, v, _ := strings.Cut(pair, "=")
			meta[k] = v
		}
		res, err := decodeRun(meta)
		if err != nil {
			return
		}
		again := stamped(res)
		res2, err := decodeRun(again)
		if err != nil {
			t.Fatalf("a decoded description stamps to a record that does not decode: %v", err)
		}
		if !reflect.DeepEqual(res2, res) {
			t.Fatalf("a decoded description changes on its way through its record:\n%#v\n%#v", res, res2)
		}
	})
}
