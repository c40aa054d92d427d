package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pperf/internal/packed"
	"pperf/internal/sim"
)

// drained drains a recorder the way a daemon does and materialises the shard:
// the adapter out of the packed form, for tests that read spans.
func drained(t *testing.T, r *Recorder) []Span {
	t.Helper()
	sh := r.DrainShard(new(Packer), "")
	got, err := UnpackShard(new(packed.Table), sh.Packed())
	if err != nil || sh.Len() != len(got.Spans) || sh.Proc != r.Proc() || sh.Node != r.Node() || sh.Dropped != r.Dropped() {
		t.Fatalf("drained shard %+v (%d spans) does not unpack to itself: %d spans, err %v", sh, sh.Len(), len(got.Spans), err)
	}
	return got.Spans
}

func TestRingEvictionAndDropAccounting(t *testing.T) {
	r := NewRecorder("p0", "node0", 4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Seq: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	got := drained(t, r)
	if len(got) != 4 {
		t.Fatalf("Drain len = %d, want 4", len(got))
	}
	for i, s := range got {
		if s.Seq != uint64(6+i) {
			t.Errorf("drained[%d].Seq = %d, want %d (oldest evicted first)", i, s.Seq, 6+i)
		}
	}
	if r.Len() != 0 || drained(t, r) != nil {
		t.Error("Drain should reset the ring")
	}
	if r.Dropped() != 6 {
		t.Error("drop count must survive Drain (cumulative)")
	}
}

func TestTracerSeqAndNesting(t *testing.T) {
	tr := New(nil)
	tr.BeginMPI("p0", "node0", "MPI_Barrier", 10, "", 0, 0, "comm-0")
	tr.BeginMPI("p0", "node0", "MPI_Isend", 11, "1", 5, 4, "comm-0")
	tr.EndMPI("p0", 12)
	tr.EndMPI("p0", 20)
	spans := drained(t, tr.Recorder("p0"))
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	// Inner call ends (and records) first, at depth 1.
	if spans[0].Name != "MPI_Isend" || spans[0].Depth != 1 {
		t.Errorf("inner span = %+v, want MPI_Isend at depth 1", spans[0])
	}
	if spans[1].Name != "MPI_Barrier" || spans[1].Depth != 0 {
		t.Errorf("outer span = %+v, want MPI_Barrier at depth 0", spans[1])
	}
	if spans[0].Seq >= spans[1].Seq {
		t.Error("seq must increase in record order")
	}
	if spans[1].Start != 10 || spans[1].End != 20 {
		t.Errorf("outer span times = [%d,%d], want [10,20]", spans[1].Start, spans[1].End)
	}
}

func TestSyncReleaseEmitsWaiterEdges(t *testing.T) {
	tr := New(nil)
	// Give every proc a recorder so the release can resolve nodes.
	for _, p := range []string{"p0", "p1", "p2"} {
		tr.Compute(p, "node0", 0, 1, false)
	}
	key := new(int)
	tr.SyncArrive(key, "p0")
	tr.SyncArrive(key, "p1")
	tr.SyncRelease(key, "barrier", "p2", 50)
	for _, waiter := range []string{"p0", "p1"} {
		spans := drained(t, tr.Recorder(waiter))
		found := false
		for _, s := range spans {
			if s.Kind == EdgeEvent && s.Name == "barrier" && s.Peer == "p2" &&
				s.Start == 50 && s.End == 50 && s.Wait {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no sync wait edge from releaser, spans = %+v", waiter, spans)
		}
	}
	// The releaser itself never waits on its own release.
	for _, s := range drained(t, tr.Recorder("p2")) {
		if s.Kind == EdgeEvent && s.Name == "barrier" {
			t.Error("releaser must not receive a sync edge")
		}
	}
}

func TestTimelineMergeOrdering(t *testing.T) {
	tl := NewTimeline()
	// Shards arrive out of order; the merge keys on (Start, Seq).
	tl.Ingest(Shard{Proc: "b{1}", Node: "n1", Spans: []Span{
		{Seq: 4, Kind: MPISpan, Proc: "b{1}", Start: 20, End: 30},
		{Seq: 2, Kind: MPISpan, Proc: "b{1}", Start: 5, End: 9},
	}})
	tl.Ingest(Shard{Proc: "paradynd@n0", Node: "n0", Spans: []Span{
		{Seq: 9, Kind: DaemonSample, Proc: "paradynd@n0", Start: 1, End: 1},
	}})
	tl.Ingest(Shard{Proc: "a{0}", Node: "n0", Spans: []Span{
		{Seq: 1, Kind: MPISpan, Proc: "a{0}", Start: 5, End: 10},
	}, Dropped: 3})
	tl.Ingest(Shard{Proc: "a{0}", Node: "n0", Spans: nil, Dropped: 7})

	spans := tl.Spans()
	var order []uint64
	for _, s := range spans {
		order = append(order, s.Seq)
	}
	want := []uint64{9, 1, 2, 4} // start 1, then start 5 seq 1 before seq 2, then start 20
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merged order = %v, want %v", order, want)
		}
	}
	// Rank tracks first (by first Seq), tool tracks last.
	procs := tl.Procs()
	if len(procs) != 3 || procs[0] != "a{0}" || procs[1] != "b{1}" || procs[2] != "paradynd@n0" {
		t.Errorf("Procs = %v", procs)
	}
	// Cumulative drop counts keep the maximum per proc, not the sum.
	if st := tl.Stats(); st.Shards != 4 || st.Dropped != 7 {
		t.Errorf("Shards = %d, Dropped = %d, want 4 and 7", st.Shards, st.Dropped)
	}
}

// syntheticTimeline builds a two-proc exchange: p0 computes then sends,
// p1 blocks in MPI_Recv until the message lands, then computes.
func syntheticTimeline() *Timeline {
	tl := NewTimeline()
	tl.Ingest(Shard{Proc: "p0", Node: "n0", Spans: []Span{
		{Seq: 1, Kind: ComputeSpan, Proc: "p0", Node: "n0", Name: "compute", Start: 0, End: 10},
		{Seq: 2, Kind: MPISpan, Proc: "p0", Node: "n0", Name: "MPI_Send", Start: 10, End: 11, Peer: "p1", Bytes: 4},
	}})
	tl.Ingest(Shard{Proc: "p1", Node: "n1", Spans: []Span{
		{Seq: 3, Kind: MPISpan, Proc: "p1", Node: "n1", Name: "MPI_Recv", Start: 0, End: 12, Peer: "p0", Bytes: 4},
		{Seq: 4, Kind: EdgeEvent, Proc: "p1", Node: "n1", Name: "msg", Peer: "p0", Start: 10, End: 12, Flow: 1, Wait: true},
		{Seq: 5, Kind: ComputeSpan, Proc: "p1", Node: "n1", Name: "compute", Start: 12, End: 20},
	}})
	return tl
}

func TestCriticalPathSynthetic(t *testing.T) {
	cp := Analyze(syntheticTimeline())
	if cp.Total != 20 {
		t.Fatalf("Total = %v, want 20", cp.Total)
	}
	// Walk: p1 compute 12→20 (8), blocked MPI_Recv until edge at 12 (0),
	// transit 10→12 (2 network), jump to p0 at 10: compute 0→10 (10).
	if got := cp.ByFunc["compute"]; got != 18 {
		t.Errorf("compute = %v, want 18", got)
	}
	if got := cp.ByFunc["(network)"]; got != 2 {
		t.Errorf("(network) = %v, want 2", got)
	}
	if got := cp.ByResource["p1"]; got != 8 {
		t.Errorf("p1 = %v, want 8", got)
	}
	if got := cp.ByResource["p0"]; got != 10 {
		t.Errorf("p0 = %v, want 10", got)
	}
	var sum sim.Time
	for _, d := range cp.ByFunc {
		sum += d
	}
	if sum != cp.Total {
		t.Errorf("attributions sum to %v, want Total %v", sum, cp.Total)
	}
	if top := sorted(cp.ByFunc)[0]; top.name != "compute" {
		t.Errorf("largest function share = %q", top.name)
	}
	if top := sorted(cp.ByResource)[0]; top.name != "p0" {
		t.Errorf("largest resource share = %q", top.name)
	}
	out := cp.Render()
	if !strings.Contains(out, "Critical path:") || !strings.Contains(out, "by function:") {
		t.Errorf("render:\n%s", out)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	cp := Analyze(NewTimeline())
	if cp.Total != 0 || cp.Steps != 0 {
		t.Errorf("empty analyze: %+v", cp)
	}
	if len(cp.ByFunc) != 0 || len(cp.ByResource) != 0 {
		t.Errorf("empty analyze attributes time: %v %v", cp.ByFunc, cp.ByResource)
	}
}

func TestWriteChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, syntheticTimeline()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e["ph"].(string)]++
	}
	if counts["X"] != 4 {
		t.Errorf("complete events = %d, want 4", counts["X"])
	}
	if counts["s"] != 1 || counts["f"] != 1 {
		t.Errorf("flow events s=%d f=%d, want 1/1", counts["s"], counts["f"])
	}
	if counts["M"] == 0 {
		t.Error("no metadata events")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, syntheticTimeline()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "seq,kind,proc,") {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 6 { // header + 5 spans
		t.Errorf("lines = %d, want 6:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(buf.String(), "MPI_Recv") {
		t.Error("CSV missing span names")
	}
}

func TestTracerDropsByProc(t *testing.T) {
	tr := New(&Config{RingCapacity: 2})
	for i := 0; i < 5; i++ {
		tr.Compute("p0", "n0", sim.Time(i), sim.Time(i+1), false)
	}
	tr.Compute("p1", "n0", 0, 1, false)
	if p0, p1 := tr.Recorder("p0").Dropped(), tr.Recorder("p1").Dropped(); p0 != 3 || p1 != 0 {
		t.Errorf("dropped p0 %d, p1 %d; want 3 and 0", p0, p1)
	}
	if got := len(tr.Recorders("")); got != 2 {
		t.Errorf("Recorders = %d, want 2", got)
	}
	if got := len(tr.Recorders("n0")); got != 2 {
		t.Errorf("Recorders(n0) = %d, want 2", got)
	}
}

func TestWriteChromeCounterTracks(t *testing.T) {
	counters := []CounterTrack{
		{Name: "mpi_sync_wait [/Code]", Points: []CounterPoint{{TsNs: 0, Value: 0}, {TsNs: 50, Value: 2.5}}},
		{Name: "msgs_sent [/Code]", Points: []CounterPoint{{TsNs: 0, Value: 1}}},
	}
	var plain, with bytes.Buffer
	if err := WriteChrome(&plain, syntheticTimeline()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeWith(&with, syntheticTimeline(), counters); err != nil {
		t.Fatal(err)
	}
	// Nil counters must leave the export byte-identical to WriteChrome.
	var nilCounters bytes.Buffer
	if err := WriteChromeWith(&nilCounters, syntheticTimeline(), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), nilCounters.Bytes()) {
		t.Error("WriteChromeWith(nil) differs from WriteChrome")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(with.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var cEvents int
	var sawProcessName bool
	for _, e := range doc.TraceEvents {
		if e["ph"] == "C" {
			cEvents++
			if e["pid"].(float64) != counterPid {
				t.Errorf("counter event on pid %v", e["pid"])
			}
			if _, ok := e["args"].(map[string]any)["value"]; !ok {
				t.Errorf("counter event without value: %v", e)
			}
		}
		if e["ph"] == "M" && e["name"] == "process_name" && e["pid"].(float64) == counterPid {
			sawProcessName = true
		}
	}
	if cEvents != 3 {
		t.Errorf("counter events = %d, want 3", cEvents)
	}
	if !sawProcessName {
		t.Error("counter process not named")
	}
	// Span events must be untouched by the counter addition.
	if !bytes.Contains(with.Bytes(), []byte("MPI_Recv")) {
		t.Error("span events missing from counter export")
	}
}

// TestCriticalPathSlack pins the slack section: on-path functions report
// zero, and an off-path function's slack is its processes' smallest
// end-of-run idle tail.
func TestCriticalPathSlack(t *testing.T) {
	tl := syntheticTimeline()
	// p2 finishes at 14 and is never on the path (ends at 20 on p1): its
	// exclusive function waste_time has slack 20-14 = 6.
	tl.Ingest(Shard{Proc: "p2", Node: "n2", Spans: []Span{
		{Seq: 6, Kind: ComputeSpan, Proc: "p2", Node: "n2", Name: "waste_time", Start: 0, End: 14},
	}})
	cp := Analyze(tl)
	if got := cp.Slack["waste_time"]; got != 6 {
		t.Errorf("waste_time slack = %v, want 6", got)
	}
	if got, ok := cp.Slack["compute"]; !ok || got != 0 {
		t.Errorf("compute slack = %v (ok=%v), want 0 (on path)", got, ok)
	}
	if _, ok := cp.Slack["(app)"]; ok {
		t.Error("(app) bucket leaked into slack")
	}
	out := cp.Render()
	if !strings.Contains(out, "slack (how much a function could slow") ||
		!strings.Contains(out, "(on critical path)") {
		t.Errorf("render missing slack section:\n%s", out)
	}
}
