package trace_test

// The implementations the trace plane had before it was packed — the
// materialise-then-json.Encode exporter, the preallocated ring, the
// copy-and-sort timeline — kept here as the references the streaming
// exporter, the growing ring and the one-table timeline are compared against.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// --- the exporter ------------------------------------------------------------

type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func isToolTrack(proc string) bool { return strings.HasPrefix(proc, "paradynd@") }

// refWriteChrome is WriteChromeWith as it was: every event a struct with a
// map of args, the document one slice, rendered by encoding/json.
func refWriteChrome(w io.Writer, tl *trace.Timeline, counters []trace.CounterTrack) error {
	const ranksPid, toolPid, counterPid = 1, 2, 3
	usec := func(ns int64) float64 { return float64(ns) / 1e3 }
	procs := tl.Procs()
	type track struct{ pid, tid int }
	tracks := make(map[string]track, len(procs))
	var events []chromeEvent

	events = append(events,
		chromeEvent{Ph: "M", Pid: ranksPid, Name: "process_name", Args: map[string]any{"name": "MPI ranks"}},
		chromeEvent{Ph: "M", Pid: toolPid, Name: "process_name", Args: map[string]any{"name": "tool"}},
	)
	nextTid := map[int]int{}
	for _, p := range procs {
		pid := ranksPid
		if isToolTrack(p) {
			pid = toolPid
		}
		tr := track{pid, nextTid[pid]}
		nextTid[pid]++
		tracks[p] = tr
		label := p
		if node := tl.Node(p); node != "" {
			label = fmt.Sprintf("%s (%s)", p, node)
		}
		events = append(events,
			chromeEvent{Ph: "M", Pid: tr.pid, Tid: tr.tid, Name: "thread_name", Args: map[string]any{"name": label}},
			chromeEvent{Ph: "M", Pid: tr.pid, Tid: tr.tid, Name: "thread_sort_index", Args: map[string]any{"sort_index": tr.tid}},
		)
	}

	for _, s := range tl.Spans() {
		tr := tracks[s.Proc]
		switch s.Kind {
		case trace.MPISpan, trace.ComputeSpan:
			args := map[string]any{}
			if s.Kind == trace.MPISpan {
				args["depth"] = s.Depth
				if s.Peer != "" {
					args["peer"] = s.Peer
				}
				if s.Tag != 0 {
					args["tag"] = s.Tag
				}
				if s.Bytes != 0 {
					args["bytes"] = s.Bytes
				}
				if s.Obj != "" {
					args["object"] = s.Obj
				}
			}
			events = append(events, chromeEvent{
				Ph: "X", Cat: s.Kind.String(), Pid: tr.pid, Tid: tr.tid,
				Name: s.Name, Ts: usec(int64(s.Start)), Dur: usec(int64(s.End - s.Start)),
				Args: args,
			})
		case trace.ProbeEvent, trace.DaemonSample, trace.TransportEvent, trace.MarkEvent:
			events = append(events, chromeEvent{
				Ph: "i", S: "t", Cat: s.Kind.String(), Pid: tr.pid, Tid: tr.tid,
				Name: s.Name, Ts: usec(int64(s.Start)),
			})
		case trace.EdgeEvent:
			if s.Flow == 0 {
				continue
			}
			src, ok := tracks[s.Peer]
			if !ok {
				continue
			}
			events = append(events,
				chromeEvent{
					Ph: "s", Cat: "flow:" + s.Name, Pid: src.pid, Tid: src.tid,
					Name: s.Name, Ts: usec(int64(s.Start)), ID: s.Flow,
				},
				chromeEvent{
					Ph: "f", BP: "e", Cat: "flow:" + s.Name, Pid: tr.pid, Tid: tr.tid,
					Name: s.Name, Ts: usec(int64(s.End)), ID: s.Flow,
				},
			)
		}
	}

	if len(counters) > 0 {
		events = append(events, chromeEvent{
			Ph: "M", Pid: counterPid, Name: "process_name",
			Args: map[string]any{"name": "front-end histograms"},
		})
		for i, ct := range counters {
			events = append(events, chromeEvent{
				Ph: "M", Pid: counterPid, Tid: i, Name: "thread_sort_index",
				Args: map[string]any{"sort_index": i},
			})
			for _, p := range ct.Points {
				events = append(events, chromeEvent{
					Ph: "C", Cat: "histogram", Pid: counterPid, Tid: i,
					Name: ct.Name, Ts: usec(p.TsNs),
					Args: map[string]any{"value": p.Value},
				})
			}
		}
	}

	if n := tl.Undelivered(); n > 0 {
		events = append(events, chromeEvent{
			Ph: "i", S: "g", Cat: "notice", Pid: toolPid,
			Name: fmt.Sprintf("[trace incomplete: %d spans undelivered]", n),
		})
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	return json.NewEncoder(w).Encode(doc)
}

// sameExport fails unless the streaming exporter and the reference render
// the timeline (and counters) to the same bytes.
func sameExport(t *testing.T, what string, tl *trace.Timeline, counters []trace.CounterTrack) {
	t.Helper()
	var got, want bytes.Buffer
	if err := trace.WriteChromeWith(&got, tl, counters); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := refWriteChrome(&want, tl, counters); err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s: export differs from the reference at byte %d (%d vs %d bytes):\n got …%s\nwant …%s",
			what, i, len(g), len(w), g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// Seven suite programs under the Consultant — every span kind, nested
// collectives, RMA epochs, flows — export byte for byte as they did.
func TestStreamingExportMatchesReferenceOnSuitePrograms(t *testing.T) {
	for _, pr := range []struct {
		name  string
		iters int
	}{
		{"small-messages", 400}, {"wrong-way", 4}, {"random-barrier", 30}, {"winfence-sync", 30},
		{"intensive-server", 30}, {"sstwod", 30}, {"big-message", 20},
	} {
		res, err := pperfmark.Run(pr.name, pperfmark.RunOptions{
			Impl: mpi.LAM, Seed: 7, Params: pperfmark.Params{Iterations: pr.iters}, Trace: &trace.Config{},
		})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		if n := len(res.Timeline.Spans()); n < 100 {
			t.Fatalf("%s: only %d spans traced", pr.name, n)
		}
		sameExport(t, pr.name, res.Timeline, nil)
		sameExport(t, pr.name+" with a counter", res.Timeline, []trace.CounterTrack{
			{Name: "sync_wait", Points: []trace.CounterPoint{{TsNs: 0, Value: 0.25}, {TsNs: 50_000_000, Value: 1}}},
		})
	}
}

// What the suite does not produce: values on both sides of encoding/json's
// exponent cut-offs, strings that need every kind of escaping, an
// undelivered-span notice, empty names, edges without a flow or a known
// source.
func TestStreamingExportMatchesReferenceOnEdgeCases(t *testing.T) {
	nasty := []string{"a<b>&c", `say "hi" \ back`, "line\u2028sep\u2029", "bad\xffutf8\xc3", "tab\tnl\nctl\x01\x7f", "日本語", ""}
	tl := trace.NewTimeline()
	var spans []trace.Span
	for i, name := range nasty {
		at := sim.Time(i * 1000)
		spans = append(spans,
			trace.Span{Seq: uint64(10 * i), Kind: trace.MPISpan, Name: name, Start: at, End: at + 1, Peer: name, Obj: name, Tag: -i, Bytes: i, Depth: i % 2},
			trace.Span{Seq: uint64(10*i + 1), Kind: trace.ComputeSpan, Name: name, Start: at, End: at},
			trace.Span{Seq: uint64(10*i + 2), Kind: trace.MarkEvent, Name: name, Start: at + 999, End: at + 999},
			trace.Span{Seq: uint64(10*i + 3), Kind: trace.EdgeEvent, Name: name, Peer: "paradynd@node0", Start: at, End: at + 7, Flow: uint64(i + 1)},
			trace.Span{Seq: uint64(10*i + 4), Kind: trace.EdgeEvent, Name: name, Peer: "nobody", Start: at, End: at + 7, Flow: 99},
			trace.Span{Seq: uint64(10*i + 5), Kind: trace.EdgeEvent, Name: name, Peer: "paradynd@node0", Start: at, End: at + 7},
		)
	}
	spans = append(spans, trace.Span{Seq: 1 << 40, Kind: trace.MPISpan, Name: "late", Start: 1 << 62, End: 1<<62 + 12345, Bytes: 1 << 40})
	for i := range spans {
		spans[i].Proc = `prog{0} "<&>`
	}
	tl.Ingest(trace.Shard{Proc: `prog{0} "<&>`, Node: "node<0>", Spans: spans})
	tl.Ingest(trace.Shard{Proc: "paradynd@node0", Spans: []trace.Span{{Seq: 5, Kind: trace.DaemonSample, Proc: "paradynd@node0", Name: "sample", Start: 1, End: 1}}})
	tl.Ingest(trace.Shard{Proc: "prog{1}", Node: "node1", Dropped: 3}) // a track with no spans at all
	var counters []trace.CounterTrack
	for _, name := range nasty {
		counters = append(counters, trace.CounterTrack{Name: name, Points: []trace.CounterPoint{
			{TsNs: 0, Value: 0}, {TsNs: 1, Value: 1e-9}, {TsNs: 999, Value: 2.5e22}, {TsNs: 1000, Value: -1e-7},
			{TsNs: 50_000_000, Value: 1e21}, {TsNs: 50_000_001, Value: 999999999999999868928}, {TsNs: 1 << 60, Value: 1e-6},
			{TsNs: -5, Value: 123456.789}, {TsNs: 7, Value: 5e-324}, {TsNs: 8, Value: 1.7976931348623157e308},
		}})
	}
	sameExport(t, "edge cases", tl, counters)
	sameExport(t, "edge cases, no counters", tl, nil)
	tl.NoteUndelivered("prog{1}", 12)
	tl.NoteUndelivered("never-ingested", 30)
	sameExport(t, "with an undelivered notice", tl, counters)
	sameExport(t, "empty timeline", trace.NewTimeline(), nil)
}

// --- the ring ----------------------------------------------------------------

// refRing is the Recorder as it was: the whole ring allocated up front.
type refRing struct {
	proc, node string
	buf        []trace.Span
	start, n   int
	dropped    int64
}

func (r *refRing) record(s trace.Span) {
	s.Proc, s.Node = r.proc, r.node
	if r.n == len(r.buf) {
		r.start = (r.start + 1) % len(r.buf)
		r.n--
		r.dropped++
	}
	r.buf[(r.start+r.n)%len(r.buf)] = s
	r.n++
}

func (r *refRing) drain() []trace.Span {
	if r.n == 0 {
		return nil
	}
	out := make([]trace.Span, r.n)
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	r.start, r.n = 0, 0
	return out
}

// A seeded stream of records and drains through a Tracer: the growing ring
// evicts, counts and fires the fill watermark at exactly the records the
// preallocated one did, and drains the same spans.
func TestGrowingRingMatchesPreallocatedRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64, 0} {
		t.Run(fmt.Sprintf("capacity %d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity) + 1))
			bound := capacity
			if bound == 0 {
				bound = trace.DefaultRingCapacity
			}
			watermark := bound / 2 // the Tracer's default
			tr := trace.New(&trace.Config{RingCapacity: capacity})
			ref := &refRing{proc: "p0", node: "node0", buf: make([]trace.Span, bound)}

			var fired, refFired []uint64 // Seq of the record that hit the watermark
			var seq uint64
			drainOnFire := false
			compareDrain := func(rec *trace.Recorder) {
				got, want := rec.Drain(), ref.drain()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after %d records: drained %d spans, reference %d; first got %+v", seq, len(got), len(want), got[:min(1, len(got))])
				}
			}
			tr.SetFillHook("node0", func(rec *trace.Recorder) {
				fired = append(fired, seq)
				if drainOnFire {
					compareDrain(rec)
				}
			})
			records := 3*bound + 200
			for i := 0; i < records; i++ {
				// Bursts long enough to overrun the ring, and sometimes a
				// consumer that ignores the watermark.
				if i%(bound+17) == 0 {
					drainOnFire = rng.Intn(3) != 0
				}
				seq++
				at := sim.Time(rng.Int63n(1 << 40))
				ref.record(trace.Span{Seq: seq - 1, Kind: trace.MarkEvent, Name: "m", Start: at, End: at})
				// The reference's watermark rule, evaluated before the real
				// hook can drain: fire when the fill level reaches it.
				if ref.n >= watermark {
					refFired = append(refFired, seq)
				}
				tr.Mark("p0", "node0", "m", at)
				rec := tr.Recorder("p0")
				if rec.Len() != ref.n || rec.Dropped() != ref.dropped {
					t.Fatalf("after %d records: Len %d Dropped %d, reference %d and %d", seq, rec.Len(), rec.Dropped(), ref.n, ref.dropped)
				}
				if rng.Intn(bound+50) == 0 {
					compareDrain(rec)
				}
			}
			compareDrain(tr.Recorder("p0"))
			if !reflect.DeepEqual(fired, refFired) {
				t.Errorf("watermark fired at %d records, reference at %d; first firings %v vs %v",
					len(fired), len(refFired), fired[:min(5, len(fired))], refFired[:min(5, len(refFired))])
			}
			if len(fired) == 0 && watermark <= records {
				t.Error("the watermark never fired")
			}
		})
	}
}

// --- the timeline ------------------------------------------------------------

// refTimeline is the merge as it was: every ingested span copied into a
// per-track slice, every query a rescan or a copy-and-sort.
type refTimeline struct{ byProc map[string][]trace.Span }

func (r *refTimeline) ingest(sh trace.Shard) {
	r.byProc[sh.Proc] = append(r.byProc[sh.Proc], sh.Spans...)
}

func (r *refTimeline) procs() []string {
	type first struct {
		proc string
		seq  uint64
	}
	var ranks, tools []first
	for p, spans := range r.byProc {
		min := ^uint64(0)
		for _, s := range spans {
			if s.Seq < min {
				min = s.Seq
			}
		}
		if isToolTrack(p) {
			tools = append(tools, first{p, min})
		} else {
			ranks = append(ranks, first{p, min})
		}
	}
	var out []string
	for _, fs := range [][]first{ranks, tools} {
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].seq != fs[j].seq {
				return fs[i].seq < fs[j].seq
			}
			return fs[i].proc < fs[j].proc
		})
		for _, f := range fs {
			out = append(out, f.proc)
		}
	}
	return out
}

func sortedCopy(spans ...[]trace.Span) []trace.Span {
	out := []trace.Span{}
	for _, s := range spans {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

func (r *refTimeline) spans() []trace.Span {
	var all [][]trace.Span
	for _, s := range r.byProc {
		all = append(all, s)
	}
	return sortedCopy(all...)
}

// A real run's spans, re-cut into shards of random sizes and ingested in
// shuffled order (drop-only shards and an undelivered note for a track that
// never ships among them): Spans, ProcSpans and Procs answer what the
// copy-and-sort timeline answered, and nothing the caller handed over was
// written to.
func TestTimelineMatchesCopyAndSortOnShuffledArrival(t *testing.T) {
	res, err := pperfmark.Run("random-barrier", pperfmark.RunOptions{
		Impl: mpi.LAM, Seed: 7, DisablePC: true, Params: pperfmark.Params{Iterations: 40}, Trace: &trace.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := int64(0); trial < 5; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var shards []trace.Shard
		for _, p := range res.Timeline.Procs() {
			spans := res.Timeline.ProcSpans(p)
			rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] }) // not even record order
			for len(spans) > 0 {
				n := 1 + rng.Intn(min(len(spans), 300))
				shards = append(shards, trace.Shard{Proc: p, Node: res.Timeline.Node(p), Spans: spans[:n:n]})
				spans = spans[n:]
			}
			shards = append(shards, trace.Shard{Proc: p, Node: res.Timeline.Node(p), Dropped: 1})
		}
		shards = append(shards, trace.Shard{Proc: "prog{drop-only}", Node: "node9", Dropped: 4})
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		tl, ref := trace.NewTimeline(), &refTimeline{byProc: map[string][]trace.Span{}}
		var handed [][]trace.Span
		for _, sh := range shards {
			handed = append(handed, append([]trace.Span(nil), sh.Spans...))
			tl.Ingest(sh)
			ref.ingest(sh)
		}
		tl.NoteUndelivered("prog{never-shipped}", 3)

		if got, want := tl.Procs(), ref.procs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Procs = %v, reference %v", trial, got, want)
		}
		if got, want := tl.Spans(), ref.spans(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Spans differs from the reference merge (%d vs %d spans)", trial, len(got), len(want))
		}
		for _, p := range append(ref.procs(), "prog{never-shipped}", "nobody") {
			if got, want := tl.ProcSpans(p), sortedCopy(ref.byProc[p]); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: ProcSpans(%s) differs from the reference (%d vs %d spans)", trial, p, len(got), len(want))
			}
		}
		if tl.Shards() != len(shards) {
			t.Errorf("trial %d: Shards = %d, want %d", trial, tl.Shards(), len(shards))
		}
		for i, sh := range shards {
			if !reflect.DeepEqual(sh.Spans, handed[i]) && len(sh.Spans) > 0 {
				t.Fatalf("trial %d: the timeline wrote to shard %d's spans", trial, i)
			}
		}
	}
}

// --- allocation budgets --------------------------------------------------------

func TestTracePlaneAllocationBudgets(t *testing.T) {
	// Recording below capacity: the ring doubles, so a track's whole first
	// fill costs a handful of allocations — and none once it has grown.
	const records = trace.DefaultRingCapacity - 1
	span := trace.Span{Kind: trace.MPISpan, Name: "MPI_Send"}
	fresh := testing.AllocsPerRun(5, func() {
		r := trace.NewRecorder("p0", "node0", 0)
		for i := 0; i < records; i++ {
			r.Record(span)
		}
	})
	if per := fresh / records; per >= 0.01 {
		t.Errorf("filling a fresh ring: %v allocs for %d records (%.4f per record), want under 0.01", fresh, records, per)
	}
	rec := trace.NewRecorder("p0", "node0", 0)
	for i := 0; i < records; i++ {
		rec.Record(span)
	}
	rec.Drain()
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < records/20; i++ { // eleven runs stay below capacity
			rec.Record(span)
		}
	}); n != 0 || rec.Dropped() != 0 {
		t.Errorf("refilling a grown ring: %v allocs per %d records (%d dropped), want 0", n, records/20, rec.Dropped())
	}

	// Ingest holds the shard's slice: at most the track's slice list grows.
	tl := trace.NewTimeline()
	spans := make([]trace.Span, 64)
	tl.Ingest(trace.Shard{Proc: "p0", Node: "node0", Spans: spans})
	if n := testing.AllocsPerRun(200, func() { tl.Ingest(trace.Shard{Proc: "p0", Node: "node0", Spans: spans}) }); n > 1 {
		t.Errorf("Timeline.Ingest: %v allocs per shard, want at most 1", n)
	}

	// The exporter's cost does not depend on how many spans it streams:
	// ten times the spans is the same count of allocations (the merged
	// slice is one either way), give or take the pooled objects (fmt's and
	// encoding/json's, for the labels and the quoting cache) that a GC cycle
	// or the race detector's pool sampling makes it allocate again.
	export := func(n int) float64 {
		tl := trace.NewTimeline()
		for p := 0; p < 4; p++ {
			proc := fmt.Sprintf("prog{%d}", p)
			sh := trace.Shard{Proc: proc, Node: "node0"}
			for i := 0; i < n/4; i++ {
				at := sim.Time(i*1000 + p)
				sh.Spans = append(sh.Spans,
					trace.Span{Seq: uint64(8*i + 2*p), Kind: trace.MPISpan, Proc: proc, Name: "MPI_Send", Start: at, End: at + 500, Peer: "1", Bytes: 4, Obj: "MPI_COMM_WORLD"},
					trace.Span{Seq: uint64(8*i + 2*p + 1), Kind: trace.EdgeEvent, Proc: proc, Name: "msg", Peer: "prog{0}", Start: at, End: at + 400, Flow: uint64(i + 1)})
			}
			tl.Ingest(sh)
		}
		return testing.AllocsPerRun(3, func() {
			if err := trace.WriteChrome(io.Discard, tl); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := export(2000), export(20000); large > small+small/4+4 {
		t.Errorf("WriteChrome allocates %v times for 20000 spans and %v for 2000; want the same for the larger timeline", large, small)
	}
}
