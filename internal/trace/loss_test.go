package trace

// Tests for the three span-loss counters (ring eviction, outbox/bulk-queue
// eviction, undelivered-at-exit) and the exporters' incomplete-trace notice.

import (
	"bytes"
	"strings"
	"testing"
)

func TestTimelineLossCounters(t *testing.T) {
	tl := NewTimeline()
	// OutboxLost and Dropped are cumulative per-track counters: the timeline
	// keeps the maximum, not the sum of every shard's stamp.
	tl.Ingest(Shard{Proc: "p0", Node: "node0", Spans: make([]Span, 2), Dropped: 1, OutboxLost: 3})
	tl.Ingest(Shard{Proc: "p0", Node: "node0", Spans: make([]Span, 1), Dropped: 4, OutboxLost: 3})
	tl.Ingest(Shard{Proc: "p1", Node: "node1", Spans: make([]Span, 1), OutboxLost: 2})

	if got := tl.Stats(); got != (Stats{Shards: 3, Dropped: 4, OutboxLost: 5}) {
		t.Errorf("Stats = %+v, want 3 shards, Dropped 4 (max per track), OutboxLost 5 (3 + 2)", got)
	}
	if got := tl.Stats("p1", "nobody"); got != (Stats{Shards: 1, OutboxLost: 2}) {
		t.Errorf("Stats(p1) = %+v, want p1's track alone", got)
	}

	// NoteUndelivered is idempotent: re-notes of the same total don't grow
	// it, and a larger total replaces a smaller one.
	tl.NoteUndelivered("p0", 5)
	tl.NoteUndelivered("p0", 5)
	tl.NoteUndelivered("p0", 3)
	if got := tl.Stats().Undelivered; got != 5 {
		t.Errorf("Undelivered = %d, want 5", got)
	}
	tl.NoteUndelivered("p0", 7)
	if got := tl.Stats().Undelivered; got != 7 {
		t.Errorf("Undelivered after larger note = %d, want 7", got)
	}
	if got := tl.Lost(); got != 4+5+7 {
		t.Errorf("Lost = %d, want %d", got, 4+5+7)
	}
}

func TestExportersFlagIncompleteTrace(t *testing.T) {
	tl := NewTimeline()
	tl.Ingest(Shard{Proc: "p0", Node: "node0", Spans: []Span{{Kind: ComputeSpan, Name: "compute"}}})
	tl.NoteUndelivered("p0", 2)

	const want = "[trace incomplete: 2 spans undelivered]"
	var chrome bytes.Buffer
	if err := WriteChrome(&chrome, tl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), want) {
		t.Errorf("Chrome export missing %q", want)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, tl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), want) {
		t.Errorf("CSV export missing %q", want)
	}
}

func TestExportersOmitNoticeWhenComplete(t *testing.T) {
	tl := NewTimeline()
	tl.Ingest(Shard{Proc: "p0", Node: "node0", Spans: []Span{{Kind: ComputeSpan, Name: "compute"}}})

	var chrome, csv bytes.Buffer
	if err := WriteChrome(&chrome, tl); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csv, tl); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"chrome": chrome.String(), "csv": csv.String()} {
		if strings.Contains(out, "trace incomplete") {
			t.Errorf("%s export flags a complete trace as incomplete", name)
		}
	}
}
