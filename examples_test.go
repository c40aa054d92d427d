package pperf

// Smoke tests: every example program builds and runs to completion with a
// sane exit. Skipped in -short mode (each run takes a few seconds).

import (
	"os/exec"
	"strings"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow; skipped with -short")
	}
	cases := []struct {
		dir  string
		want string // a line the output must contain
	}{
		{"./examples/quickstart", "Performance Consultant's findings"},
		{"./examples/rma-tuning", "synchronization waiting"},
		{"./examples/spawn-monitor", "intercept inflation"},
		{"./examples/custom-metric", "big sends"},
		{"./examples/verify-findings", "all three methods agree"},
		{"./examples/record-replay", "live and replayed reports are byte-identical"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", tc.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", tc.dir, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("%s output missing %q:\n%s", tc.dir, tc.want, out)
			}
		})
	}
}
