package trace_test

// End-to-end tests of the tracing subsystem through the full tool stack:
// deterministic merged timelines across identical runs (including under an
// injected daemon hang), and Chrome trace-event export validity.

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
	"pperf/internal/trace"
)

// smallMessages is the run TestTraceDeterminism and TestChromeExportValidity
// share: small-messages under LAM with tracing armed and the Performance
// Consultant off (these tests exercise the trace path, not the diagnosis).
var smallMessages = sync.OnceValue(func() *cell {
	c := smallMessagesCell(nil)
	c.err = c.run()
	return c
})

func smallMessagesCell(plan *faults.Plan) *cell {
	return &cell{program: "small-messages", opt: pperfmark.RunOptions{Impl: mpi.LAM, Params: pperfmark.Params{Iterations: 1500}, Faults: plan}}
}

func csvOf(t *testing.T, tl *trace.Timeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceDeterminism(t *testing.T) {
	a, b := built(t, smallMessages()), traced(t, smallMessagesCell(nil))
	if !bytes.Equal(csvOf(t, a.tl), csvOf(t, b.tl)) {
		t.Error("merged timelines differ across identical runs")
	}
	ra := trace.Analyze(a.tl).Render()
	rb := trace.Analyze(b.tl).Render()
	if ra != rb {
		t.Errorf("critical paths differ across identical runs:\n%s---\n%s", ra, rb)
	}
	if n := a.tl.Stats().Dropped; n != 0 {
		t.Errorf("unexpected span drops: %d", n)
	}
}

func TestTraceDeterminismUnderFaults(t *testing.T) {
	plan := func() *faults.Plan {
		p, err := faults.Parse("t=20ms hang-daemon node1 for=30ms")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := traced(t, smallMessagesCell(plan())), traced(t, smallMessagesCell(plan()))
	if !bytes.Equal(csvOf(t, a.tl), csvOf(t, b.tl)) {
		t.Error("merged timelines differ across identical fault runs")
	}
	// The hung daemon resumed and its shards still merged: node1's ranks
	// must have spans recorded after the hang window (20–50 ms), and each
	// per-proc track must arrive in Seq order.
	covered := false
	byProc := map[string][]trace.Span{}
	for _, s := range a.tl.Spans() {
		byProc[s.Proc] = append(byProc[s.Proc], s)
	}
	for _, p := range a.tl.Procs() {
		spans := byProc[p]
		var lastSeq uint64
		for i, s := range spans {
			if i > 0 && s.Start == spans[i-1].Start && s.Seq < lastSeq {
				t.Errorf("%s: spans out of Seq order after merge", p)
			}
			lastSeq = s.Seq
			if a.tl.Node(p) == "node1" && s.Start > 50_000_000 {
				covered = true
			}
		}
	}
	if !covered {
		t.Error("no node1 spans after the hang window: shards were lost, not replayed")
	}
}

func TestChromeExportValidity(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, built(t, smallMessages()).tl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			ID   uint64         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	rankTracks := 0
	flowStarts := map[uint64]bool{}
	flowEnds := map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name" && e.Pid == 1:
			rankTracks++
		case e.Ph == "s":
			flowStarts[e.ID] = true
		case e.Ph == "f":
			flowEnds[e.ID] = true
		}
	}
	if rankTracks != 6 {
		t.Errorf("rank tracks = %d, want one per rank (6)", rankTracks)
	}
	// Every matched send→recv pair is connected: 5 clients × 1500 messages,
	// each flow id appearing exactly once as a start and once as an end.
	if len(flowStarts) < 7500 {
		t.Errorf("flow pairs = %d, want ≥ 7500", len(flowStarts))
	}
	if len(flowStarts) != len(flowEnds) {
		t.Fatalf("flow starts = %d, ends = %d", len(flowStarts), len(flowEnds))
	}
	for id := range flowStarts {
		if !flowEnds[id] {
			t.Fatalf("flow %d has no matching finish event", id)
		}
	}
	if !strings.Contains(buf.String(), "displayTimeUnit") {
		t.Error("missing displayTimeUnit")
	}
}
