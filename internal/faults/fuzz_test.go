package faults_test

// Fuzz target for the fault-plan grammar: Parse must never panic on
// arbitrary input, and any input it accepts must round-trip — the canonical
// String form reparses, and reparsing is a fixed point. Run with
//
//	go test -fuzz=FuzzParse ./internal/faults
//
// The seed corpus covers every verb, every option, and the knob clauses.

import (
	"testing"

	"pperf/internal/faults"
)

func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"seed=7; detect=400ms; hb=100ms",
		"restarts=2; t=1s crash-daemon node1 restartable",
		"hb=0s; restarts=2; t=500ms crash-daemon node1 restartable",
		"t=2s kill-node node1",
		"t=1s hang-daemon node0 for=500ms",
		"t=1s sever-link node0:node1 for=1s",
		"t=1s degrade-link node0:node1 lat=10 bw=0.1",
		"t=1s degrade-link * lat=2",
		"t=0s delay-attach node2 for=100ms",
		"t=1.5s drop-transport node0 n=3 chan=bulk",
		"t=1s drop-transport node0 n=3 chan=both",
		"; ;; t=1s kill-node n0 ;",
		"t=1s explode node0",
		"seed=x",
		"restarts=-1",
		"t=-1s kill-node node0",
		"t=1s degrade-link * lat=NaN",
		"t=1s degrade-link * lat=-2",
		"t=1s degrade-link * lat=+Inf",
		"t=1s degrade-link * lat=1e300",
		"t=1s degrade-link * lat=1e6 bw=1e-300",
		"t=1s degrade-link * bw=NaN",
		"t=1s degrade-link * bw=-1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := faults.Parse(text) // must not panic
		if err != nil {
			return
		}
		// Accepted plans round-trip through the canonical form.
		canon := p.String()
		q, err := faults.Parse(canon)
		if err != nil {
			t.Fatalf("accepted %q but canonical form %q does not reparse: %v", text, canon, err)
		}
		if q.String() != canon {
			t.Fatalf("String not a fixed point for %q:\n%s\n%s", text, canon, q.String())
		}
	})
}
