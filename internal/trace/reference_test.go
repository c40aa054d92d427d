package trace_test

// The implementations the trace plane had before it was packed — the
// materialise-then-json.Encode exporter, the preallocated ring, the
// copy-and-sort timeline with its loop-over-Spans exporters and its
// copy-per-track critical path — kept here as the references the streaming
// exporter, the growing ring and the packed timeline are compared against.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pperf/internal/core"
	"pperf/internal/daemon"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/packed"
	"pperf/internal/pperfmark"
	"pperf/internal/session"
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

// refWriteChrome is WriteChromeWith as it was: a loop over the materialised,
// merged spans, every event a struct with a map of args, the document one
// slice, rendered by encoding/json.
func refWriteChrome(w io.Writer, tl *trace.Timeline, spans []trace.Span, counters []trace.CounterTrack) error {
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

	for _, s := range spans {
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

	if n := tl.Stats().Undelivered; n > 0 {
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

// sameBytes fails, showing the first difference, unless g equals w.
func sameBytes(t *testing.T, what string, g, w []byte) {
	t.Helper()
	if !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s differs from the reference at byte %d (%d vs %d bytes):\n got …%s\nwant …%s",
			what, i, len(g), len(w), g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// sameExport fails unless the streaming exporter renders the timeline (and
// counters) to the bytes the reference renders from spans — the merged spans
// the timeline holds, as a reference merge produced them.
func sameExport(t *testing.T, what string, tl *trace.Timeline, spans []trace.Span, counters []trace.CounterTrack) {
	t.Helper()
	var got, want bytes.Buffer
	if err := trace.WriteChromeWith(&got, tl, counters); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := refWriteChrome(&want, tl, spans, counters); err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	sameBytes(t, what+": Perfetto export", got.Bytes(), want.Bytes())
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
		spans := res.Timeline.Spans()
		if n := len(spans); n < 100 {
			t.Fatalf("%s: only %d spans traced", pr.name, n)
		}
		sameExport(t, pr.name, res.Timeline, spans, nil)
		sameExport(t, pr.name+" with a counter", res.Timeline, spans, []trace.CounterTrack{
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
	sameExport(t, "edge cases", tl, tl.Spans(), counters)
	sameExport(t, "edge cases, no counters", tl, tl.Spans(), nil)
	tl.NoteUndelivered("prog{1}", 12)
	tl.NoteUndelivered("never-ingested", 30)
	sameExport(t, "with an undelivered notice", tl, tl.Spans(), counters)
	sameExport(t, "empty timeline", trace.NewTimeline(), nil, nil)
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
			var pk trace.Packer
			var strs packed.Table
			compareDrain := func(rec *trace.Recorder) {
				sh := rec.DrainShard(&pk, "paradynd@node0")
				unpacked, err := trace.UnpackShard(&strs, sh.Packed())
				if err != nil || sh.Proc != "p0" || sh.Node != "node0" || sh.Dropped != ref.dropped {
					t.Fatalf("after %d records: drained shard %+v, unpack err %v", seq, sh, err)
				}
				got, want := unpacked.Spans, ref.drain()
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
				ref.record(trace.Span{Seq: seq - 1, Kind: trace.TransportEvent, Name: "m", Start: at, End: at})
				// The reference's watermark rule, evaluated before the real
				// hook can drain: fire when the fill level reaches it.
				if ref.n >= watermark {
					refFired = append(refFired, seq)
				}
				tr.Transport("p0", "node0", "m", at)
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

// refTimeline is the timeline as it was: every ingested span copied into a
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

// spans is Timeline.Spans as it was, procSpans Timeline.ProcSpans.
func (r *refTimeline) spans() []trace.Span {
	var all [][]trace.Span
	for _, s := range r.byProc {
		all = append(all, s)
	}
	return sortedCopy(all...)
}

func (r *refTimeline) procSpans(p string) []trace.Span { return sortedCopy(r.byProc[p]) }

// refWriteCSV is WriteCSV as it was: one row per merged, materialised span.
func refWriteCSV(w io.Writer, tl *trace.Timeline, spans []trace.Span) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{
		"seq", "kind", "proc", "node", "name", "start_ns", "end_ns",
		"depth", "peer", "tag", "bytes", "obj", "flow", "wait",
	})
	for _, s := range spans {
		cw.Write([]string{
			strconv.FormatUint(s.Seq, 10), s.Kind.String(), s.Proc, s.Node, s.Name,
			strconv.FormatInt(int64(s.Start), 10), strconv.FormatInt(int64(s.End), 10),
			strconv.Itoa(s.Depth), s.Peer, strconv.Itoa(s.Tag), strconv.Itoa(s.Bytes), s.Obj,
			strconv.FormatUint(s.Flow, 10), strconv.FormatBool(s.Wait),
		})
	}
	if n := tl.Stats().Undelivered; n > 0 {
		cw.Write([]string{"", "notice", "", "", fmt.Sprintf("[trace incomplete: %d spans undelivered]", n), "", "", "", "", "", "", "", "", ""})
	}
	cw.Flush()
	return cw.Error()
}

// refAnalyze is Analyze as it was: per track a sorted copy of every span, and
// out of it copies of the depth-0 spans and the wait edges, whole Spans all.
// It fills a CriticalPath the way Analyze did, slack included.
func refAnalyze(procs []string, procSpans func(string) []trace.Span) *trace.CriticalPath {
	type procTrack struct{ spans, edges []trace.Span }
	cp := &trace.CriticalPath{ByFunc: map[string]sim.Time{}, ByResource: map[string]sim.Time{}, Slack: map[string]sim.Time{}}
	tracks := make(map[string]*procTrack)
	var endProc string
	var endT sim.Time
	var endSeq uint64
	for _, p := range procs {
		if isToolTrack(p) {
			continue
		}
		pt := &procTrack{}
		for _, s := range procSpans(p) {
			switch s.Kind {
			case trace.MPISpan, trace.ComputeSpan:
				if s.Depth != 0 {
					continue
				}
				pt.spans = append(pt.spans, s)
				if s.End > endT || (s.End == endT && s.Seq < endSeq) || endProc == "" {
					endProc, endT, endSeq = p, s.End, s.Seq
				}
			case trace.EdgeEvent:
				if s.Wait {
					pt.edges = append(pt.edges, s)
				}
			}
		}
		sort.Slice(pt.spans, func(i, j int) bool { return pt.spans[i].Start < pt.spans[j].Start })
		sort.Slice(pt.edges, func(i, j int) bool {
			if pt.edges[i].End != pt.edges[j].End {
				return pt.edges[i].End < pt.edges[j].End
			}
			return pt.edges[i].Seq < pt.edges[j].Seq
		})
		tracks[p] = pt
	}
	if endProc == "" {
		return cp
	}
	cp.Total = endT
	charge := func(fn, proc string, d sim.Time) {
		if d > 0 {
			cp.ByFunc[fn] += d
			cp.ByResource[proc] += d
		}
	}
	proc, t := endProc, endT
	for t > 0 {
		cp.Steps++
		if cp.Steps > 2_000_000 {
			cp.Truncated = true
			break
		}
		pt := tracks[proc]
		var s *trace.Span
		if pt != nil {
			i := sort.Search(len(pt.spans), func(i int) bool { return pt.spans[i].Start >= t })
			if i > 0 {
				s = &pt.spans[i-1]
			}
		}
		if s == nil {
			if pt != nil {
				for i := range pt.edges {
					e := &pt.edges[i]
					if e.Name == "spawn" && e.End <= t {
						charge("(app)", proc, t-e.End)
						proc, t = e.Peer, e.Start
						goto next
					}
				}
			}
			charge("(app)", proc, t)
			t = 0
		next:
			continue
		}
		if s.End < t {
			charge("(app)", proc, t-s.End)
			t = s.End
			continue
		}
		if s.Kind == trace.MPISpan {
			i := sort.Search(len(pt.edges), func(i int) bool { return pt.edges[i].End > t })
			var e *trace.Span
			for i--; i >= 0; i-- {
				if pt.edges[i].End > s.Start {
					e = &pt.edges[i]
					break
				}
			}
			if e != nil && e.Start <= e.End && (e.End < t || e.Start < t || e.Peer != proc) {
				charge(s.Name, proc, t-e.End)
				charge("(network)", "(network)", e.End-e.Start)
				proc, t = e.Peer, e.Start
				continue
			}
		}
		charge(s.Name, proc, t-s.Start)
		t = s.Start
	}
	for _, pt := range tracks {
		if len(pt.spans) == 0 {
			continue
		}
		var finish sim.Time
		for _, s := range pt.spans {
			finish = max(finish, s.End)
		}
		tail := cp.Total - finish
		seen := map[string]bool{}
		for _, s := range pt.spans {
			if seen[s.Name] {
				continue
			}
			seen[s.Name] = true
			if cur, ok := cp.Slack[s.Name]; !ok || tail < cur {
				cp.Slack[s.Name] = tail
			}
		}
	}
	for fn, d := range cp.ByFunc {
		if d > 0 && fn != "(app)" && fn != "(network)" {
			cp.Slack[fn] = 0
		}
	}
	return cp
}

// shardStream is a session.Sink that keeps a run's trace shards, in arrival
// order and in the packed form they arrived in. It keeps no sample batch, so
// the caller's reuse of ev.Samples cannot reach it.
type shardStream struct {
	mu     sync.Mutex
	shards []trace.Shard
}

func (s *shardStream) Record(ev session.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Kind == session.EvShard {
		s.shards = append(s.shards, ev.Shard)
	}
}
func (*shardStream) SetHistogram(int, sim.Duration) {}
func (*shardStream) SetMeta(string, string)         {}
func (*shardStream) SetExtra([]byte)                {}

// materialised returns the shards as the old plane moved them: each with its
// spans in a []Span and no packed form.
func materialised(t *testing.T, shards []trace.Shard) []trace.Shard {
	t.Helper()
	var strs packed.Table
	out := make([]trace.Shard, len(shards))
	for i := range shards {
		sh, err := trace.UnpackShard(&strs, shards[i].Packed())
		if err != nil {
			t.Fatalf("shard %d does not unpack: %v", i, err)
		}
		out[i] = sh
	}
	return out
}

// samePlane fails unless tl — fed shards in whatever form — answers what the
// replaced plane answered for the same shards: Procs and Spans (through the
// materialising adapter) element for element, the Perfetto and CSV exports
// byte for byte, the critical path in every field and in its rendering —
// where the replaced walk ended; where it cycled to the step cap, the walk
// must end.
func samePlane(t *testing.T, what string, tl *trace.Timeline, shards []trace.Shard) {
	t.Helper()
	ref := &refTimeline{byProc: map[string][]trace.Span{}}
	for _, sh := range shards {
		ref.ingest(sh)
	}
	if got, want := tl.Procs(), ref.procs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Procs = %v, reference %v", what, got, want)
	}
	spans := ref.spans()
	if got := tl.Spans(); !reflect.DeepEqual(got, spans) {
		t.Fatalf("%s: Spans differs from the reference merge (%d vs %d spans)", what, len(got), len(spans))
	}
	counters := []trace.CounterTrack{{Name: "sync_wait", Points: []trace.CounterPoint{{TsNs: 0, Value: 0.25}, {TsNs: 50_000_000, Value: 1}}}}
	sameExport(t, what, tl, spans, nil)
	sameExport(t, what+" with a counter", tl, spans, counters)
	var got, want bytes.Buffer
	if err := trace.WriteCSV(&got, tl); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := refWriteCSV(&want, tl, spans); err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	sameBytes(t, what+": CSV export", got.Bytes(), want.Bytes())
	cp, refCP := trace.Analyze(tl), refAnalyze(ref.procs(), ref.procSpans)
	if cp.Truncated || !refCP.Truncated && (!reflect.DeepEqual(cp, refCP) || cp.Render() != refCP.Render()) {
		t.Fatalf("%s: critical path differs from the reference:\n got %+v\nwant %+v", what, cp, refCP)
	}
}

// runTracedProgram runs one suite program with tracing armed and the
// Consultant off, in process or over loopback TCP, and returns the timeline
// and the shard stream that built it (nil, nil when the personality cannot
// run the program).
func runTracedProgram(t *testing.T, name string, impl mpi.ImplKind, iters int, useTCP bool, tcfg *trace.Config, plan *faults.Plan) (*trace.Timeline, *shardStream) {
	t.Helper()
	prog, params, err := pperfmark.Program(name, pperfmark.Params{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	// pperfmark.Run's layouts: at most two ranks a node.
	nodes, cpus := max(2, (params.Procs+1)/2), 2
	if strings.HasPrefix(name, "spawn") {
		nodes = params.Children + 1
	}
	if params.Procs <= nodes {
		cpus = 1
	}
	dcfg := daemon.DefaultConfig()
	dcfg.SampleInterval = 50 * sim.Millisecond
	stream := &shardStream{}
	s, err := core.NewSession(core.Options{
		Impl: impl, Nodes: nodes, CPUsPerNode: cpus, Seed: 7, Daemon: &dcfg, BinWidth: 50 * sim.Millisecond,
		UseTCP: useTCP, Trace: tcfg, Faults: plan, Recorder: stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if strings.HasPrefix(name, "spawn") && !s.World.Impl.SupportsSpawn || pperfmark.Get(name).NeedsPassive && !s.World.Impl.SupportsPassiveTarget {
		return nil, nil
	}
	s.Register(name, prog)
	if err := s.Launch(name, params.Procs, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("%s under %v: %v", name, impl, err)
	}
	return s.FE.Timeline(), stream
}

// Every suite program under the three paper personalities, in process and
// over TCP: the packed plane — drain-time packing, bytes through queue, frame
// and verify, a timeline of bytes, exporters and critical path reading them
// where they lie — answers what the materialising plane answered, and so does
// a timeline handed the same shards as []Span (the adapter in: the harness's
// way, and an old-layout archive's, whose shards decode from gob as spans).
func TestPackedPlaneMatchesMaterialisedReferenceOnTheSuite(t *testing.T) {
	for _, name := range pperfmark.Names() {
		iters := min(max(2, pperfmark.Get(name).Defaults.Iterations/40), 60) // every shape, briefly
		ran := false
		for _, impl := range []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2} {
			for _, useTCP := range []bool{false, true} {
				tl, stream := runTracedProgram(t, name, impl, iters, useTCP, &trace.Config{}, nil)
				if tl == nil {
					continue
				}
				ran = true
				what := fmt.Sprintf("%s under %v (tcp=%v)", name, impl, useTCP)
				if st := tl.Stats(); st.Lost() != 0 || len(stream.shards) != st.Shards || len(stream.shards) == 0 {
					t.Fatalf("%s: %d spans lost, %d shards recorded, %d ingested", what, st.Lost(), len(stream.shards), st.Shards)
				}
				shards := materialised(t, stream.shards)
				samePlane(t, what, tl, shards)
				if impl == mpi.LAM && !useTCP {
					asSpans := trace.NewTimeline()
					for _, sh := range shards {
						asSpans.Ingest(sh)
					}
					samePlane(t, what+", ingested as []Span", asSpans, shards)
				}
			}
		}
		if !ran && !pperfmark.Get(name).NeedsPassive {
			t.Errorf("%s ran under no personality", name)
		}
	}
}

// The walk takes each (track, wait edge) at most once, so it ends on every
// suite program under the three paper personalities, with the Consultant on
// and off; wherever the replaced walk (refAnalyze) ended too, the two agree
// in every field and in the rendering. The replaced walk cycled between two
// tracks on edges with Start == End == t until the step cap: spawncount and
// spawnwin-sync under LAM, and more programs with the Consultant off.
func TestCriticalPathWalkEndsOnTheSuite(t *testing.T) {
	cycled := 0
	for _, name := range pperfmark.Names() {
		var params pperfmark.Params
		if name == "small-messages" || name == "wrong-way" {
			// The two largest traces, at a tenth of their default iterations:
			// the same shape, a tenth of the spans.
			params.Iterations = pperfmark.Get(name).Defaults.Iterations / 10
		}
		for _, impl := range []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2} {
			for _, disablePC := range []bool{false, true} {
				res, err := pperfmark.Run(name, pperfmark.RunOptions{Impl: impl, Seed: 7, DisablePC: disablePC, Params: params, Trace: &trace.Config{}})
				if err != nil {
					t.Fatalf("%s under %v: %v", name, impl, err)
				}
				if res.Unsupported != nil {
					continue
				}
				what := fmt.Sprintf("%s under %v (DisablePC=%v)", name, impl, disablePC)
				cp := trace.Analyze(res.Timeline)
				if cp.Truncated || cp.Total == 0 {
					t.Errorf("%s: the walk ran to the step cap (%d steps) or found no path (total %v)", what, cp.Steps, cp.Total)
				}
				byProc := map[string][]trace.Span{}
				for _, s := range res.Timeline.Spans() {
					byProc[s.Proc] = append(byProc[s.Proc], s)
				}
				ref := refAnalyze(res.Timeline.Procs(), func(p string) []trace.Span { return byProc[p] })
				if ref.Truncated {
					cycled++
					continue
				}
				if !reflect.DeepEqual(cp, ref) || cp.Render() != ref.Render() {
					t.Errorf("%s: critical path differs from the reference walk:\n%s\nwant\n%s", what, cp.Render(), ref.Render())
				}
			}
		}
	}
	if cycled == 0 {
		t.Error("the replaced walk cycled on no run; the table no longer covers the defect")
	}
	t.Logf("%d runs on which the replaced walk cycled", cycled)
}

// Under faults: a supervised daemon restart, and a plan that loses spans all
// three ways — a ring too small for a hung daemon's node, a bulk channel down
// long enough for the bounded queue to evict, and down again at exit.
func TestPackedPlaneMatchesMaterialisedReferenceUnderFaults(t *testing.T) {
	plan := func(text string) *faults.Plan {
		p, err := faults.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tl, stream := runTracedProgram(t, "random-barrier", mpi.LAM, 60, false, &trace.Config{}, plan("restarts=2; t=1s crash-daemon node1 restartable"))
	samePlane(t, "restarts=2", tl, materialised(t, stream.shards))

	for _, useTCP := range []bool{false, true} {
		lossy := plan("t=5ms drop-transport node0 n=6 chan=bulk; t=20ms hang-daemon node1 for=100ms; t=350ms drop-transport node0 n=100000 chan=bulk")
		tl, stream = runTracedProgram(t, "small-messages", mpi.LAM, 3000, useTCP, &trace.Config{RingCapacity: 32, FlushWatermark: 4}, lossy)
		if st := tl.Stats(); st.Dropped == 0 || st.OutboxLost == 0 || st.Undelivered == 0 {
			t.Fatalf("tcp=%v: the lossy plan lost %d spans to rings, %d to the bulk queue, %d undelivered; want all three non-zero", useTCP, st.Dropped, st.OutboxLost, st.Undelivered)
		}
		samePlane(t, fmt.Sprintf("lossy plan (tcp=%v)", useTCP), tl, materialised(t, stream.shards))
	}
}

// A real run's spans, re-cut into shards of random sizes and ingested in
// shuffled order — as packed shards and as []Span — with drop-only shards, a
// track that only ever ships an empty shard, an undelivered note for a track
// that never ships, and hand-built shards whose spans name another track:
// the timeline answers what the copy-and-sort timeline answered, and nothing
// the caller handed over was written to.
func TestTimelineMatchesCopyAndSortOnShuffledArrival(t *testing.T) {
	res, err := pperfmark.Run("random-barrier", pperfmark.RunOptions{
		Impl: mpi.LAM, Seed: 7, DisablePC: true, Params: pperfmark.Params{Iterations: 40}, Trace: &trace.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := res.Timeline.Spans()
	for trial := int64(0); trial < 5; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var shards []trace.Shard
		for _, p := range res.Timeline.Procs() {
			var spans []trace.Span
			for _, s := range all {
				if s.Proc == p {
					spans = append(spans, s)
				}
			}
			rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] }) // not even record order
			for len(spans) > 0 {
				n := 1 + rng.Intn(min(len(spans), 300))
				shards = append(shards, trace.Shard{Proc: p, Node: res.Timeline.Node(p), Spans: spans[:n:n]})
				spans = spans[n:]
			}
			shards = append(shards, trace.Shard{Proc: p, Node: res.Timeline.Node(p), Dropped: 1})
		}
		shards = append(shards,
			trace.Shard{Proc: "prog{drop-only}", Node: "node9", Dropped: 4},
			trace.Shard{Proc: "prog{empty}", Node: "node9"},
			// Spans that name another track (and none) stay on the shard's
			// track for Procs and the critical path, and export under the
			// track they name.
			trace.Shard{Proc: "prog{stray}", Node: "node9", Spans: []trace.Span{
				{Seq: 1 << 40, Kind: trace.MPISpan, Proc: "random-barrier{0}", Node: "node0", Name: "MPI_Send", Start: 5, End: 9},
				{Seq: 1<<40 + 1, Kind: trace.ComputeSpan, Proc: "nobody", Name: "compute", Start: 9, End: 12},
				{Seq: 1<<40 + 2, Kind: trace.EdgeEvent, Name: "msg", Peer: "random-barrier{1}", Start: 1, End: 7, Flow: 1 << 30, Wait: true},
			}})
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		asSpans, asBytes := trace.NewTimeline(), trace.NewTimeline()
		var handed [][]trace.Span
		var strs packed.Table
		for i, sh := range shards {
			handed = append(handed, append([]trace.Span(nil), sh.Spans...))
			asSpans.Ingest(sh)
			opened, err := trace.OpenShard(&strs, sh.Packed())
			if err != nil {
				t.Fatalf("trial %d: shard %d: %v", trial, i, err)
			}
			asBytes.Ingest(opened)
		}
		for _, tl := range []*trace.Timeline{asSpans, asBytes} {
			tl.NoteUndelivered("prog{never-shipped}", 3)
			samePlane(t, fmt.Sprintf("trial %d", trial), tl, shards)
			if got := tl.Stats().Shards; got != len(shards) {
				t.Errorf("trial %d: Shards = %d, want %d", trial, got, len(shards))
			}
		}
		for i, sh := range shards {
			if !reflect.DeepEqual(sh.Spans, handed[i]) && len(sh.Spans) > 0 {
				t.Fatalf("trial %d: the timeline wrote to shard %d's spans", trial, i)
			}
		}
	}
}

// --- allocation budgets --------------------------------------------------------

// allocated reports the heap objects and bytes one call of f allocates: like
// testing.AllocsPerRun it counts the whole process on one P, so it takes the
// least of three calls — a finalizer or a closing listener of an earlier test
// may allocate beside one of them.
func allocated(f func()) (objects, size uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	objects, size = ^uint64(0), ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects, size = min(objects, after.Mallocs-before.Mallocs), min(size, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, size
}

// rankShard builds one rank's shard of n spans the shape a run records: MPI
// calls at depth 0 with a nested call below every fourth, wait edges and
// plain flow edges, probe firings — keep of every eight are depth-0 spans or
// wait edges, what the critical path keeps.
func rankShard(rank, n int) (sh trace.Shard, kept int) {
	proc := fmt.Sprintf("prog{%d}", rank)
	sh = trace.Shard{Daemon: "paradynd@node0", Proc: proc, Node: "node0"}
	for i := 0; len(sh.Spans) < n; i++ {
		at, seq := sim.Time(i*8000+rank), uint64(64*i+8*rank)
		sh.Spans = append(sh.Spans,
			trace.Span{Seq: seq, Kind: trace.EdgeEvent, Proc: proc, Node: "node0", Name: "msg", Peer: "prog{0}", Start: at, End: at + 400, Flow: uint64(i + 1), Wait: true},
			trace.Span{Seq: seq + 1, Kind: trace.MPISpan, Proc: proc, Node: "node0", Name: "MPI_Recv", Start: at + 100, End: at + 500, Peer: "0", Bytes: 4, Obj: "MPI_COMM_WORLD"},
			trace.Span{Seq: seq + 2, Kind: trace.ComputeSpan, Proc: proc, Node: "node0", Name: "compute", Start: at + 500, End: at + 4000},
			trace.Span{Seq: seq + 3, Kind: trace.MPISpan, Proc: proc, Node: "node0", Name: "MPI_Isend", Start: at + 4100, End: at + 4200, Depth: 1, Peer: "1", Bytes: 4, Obj: "MPI_COMM_WORLD"},
			trace.Span{Seq: seq + 4, Kind: trace.MPISpan, Proc: proc, Node: "node0", Name: "MPI_Bcast", Start: at + 4000, End: at + 5000, Obj: "MPI_COMM_WORLD"},
			trace.Span{Seq: seq + 5, Kind: trace.EdgeEvent, Proc: proc, Node: "node0", Name: "credit", Peer: "prog{1}", Start: at + 4200, End: at + 4300, Flow: uint64(i + 1<<20)},
			trace.Span{Seq: seq + 6, Kind: trace.ProbeEvent, Proc: proc, Node: "node0", Name: "entry:MPI_Bcast", Start: at + 4000, End: at + 4000},
			trace.Span{Seq: seq + 7, Kind: trace.MPISpan, Proc: proc, Node: "node0", Name: "MPI_Send", Start: at + 5000, End: at + 5400, Depth: 2, Peer: "1", Tag: 7, Bytes: 4, Obj: "MPI_COMM_WORLD"},
		)
		kept += 4
	}
	return sh, kept
}

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
	var pk trace.Packer
	fill := func(n int) {
		for i := 0; i < n; i++ {
			at := sim.Time(i) * sim.Time(40*sim.Microsecond)
			rec.Record(trace.Span{Seq: uint64(3 * i), Kind: trace.MPISpan, Name: "MPI_Send", Start: at, End: at + 3000, Peer: "1", Tag: 7, Bytes: 4, Obj: "MPI_COMM_WORLD"})
		}
	}
	fill(records)
	rec.DrainShard(&pk, "paradynd@node0")
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < records/20; i++ { // eleven runs stay below capacity
			rec.Record(span)
		}
	}); n != 0 || rec.Dropped() != 0 {
		t.Errorf("refilling a grown ring: %v allocs per %d records (%d dropped), want 0", n, records/20, rec.Dropped())
	}

	// Draining a grown ring packs it where it lies: the shard's bytes, at
	// their exact size, are the one allocation.
	rec.DrainShard(&pk, "paradynd@node0")
	var drained trace.Shard
	objects, size := allocated(func() {
		fill(records) // into the grown ring: nothing allocated
		drained = rec.DrainShard(&pk, "paradynd@node0")
	})
	if objects != 1 || size > 24*records || drained.Len() != records || cap(drained.Packed()) != len(drained.Packed()) {
		t.Errorf("draining %d spans: %d allocs, %d bytes (%.1f per span), %d spans in the shard; want 1 alloc of at most 24 bytes a span",
			records, objects, size, float64(size)/records, drained.Len())
	}

	// A received shard costs its verified, exact-size copy; ingesting a packed
	// shard adds at most the track's list growing, and a shard handed over as
	// spans costs the same one copy. Iterating allocates nothing once the
	// table has met the strings.
	wire := drained.Packed()
	var strs packed.Table
	opened, err := trace.OpenShard(&strs, wire)
	if err != nil {
		t.Fatal(err)
	}
	if objects, size := allocated(func() { opened, _ = trace.OpenShard(&strs, wire) }); objects != 1 || size > uint64(len(wire))*9/8+64 { // a size class above, at most
		t.Errorf("opening a %d-byte shard: %d allocs, %d bytes; want the one exact-size copy", len(wire), objects, size)
	}
	tl := trace.NewTimeline()
	tl.Ingest(opened)
	if n := testing.AllocsPerRun(200, func() { tl.Ingest(opened) }); n != 0 {
		t.Errorf("Timeline.Ingest of a packed shard: %v allocs per shard, want 0 (the shard list's growth is amortised)", n)
	}
	spans := make([]trace.Span, 64)
	tl.Ingest(trace.Shard{Proc: "p0", Node: "node0", Spans: spans})
	if n := testing.AllocsPerRun(200, func() { tl.Ingest(trace.Shard{Proc: "p0", Node: "node0", Spans: spans}) }); n > 1 {
		t.Errorf("Timeline.Ingest of 64 materialised spans: %v allocs per shard, want at most 1 (their packed copy)", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		var s trace.Span
		for c, _ := trace.ReadShard(&strs, wire); c.Next(&s); {
		}
	}); n != 0 {
		t.Errorf("iterating a shard of known strings: %v allocs, want 0", n)
	}

	// The exporter's and the critical path's costs: a fixed count of
	// allocations whatever the span count (give or take the pooled objects —
	// fmt's and encoding/json's, for the labels and the quoting cache — that a
	// GC cycle or the race detector's pool sampling makes them allocate
	// again); in bytes, the exporter's 24-byte sort keys, and the critical
	// path's 64 bytes per depth-0 span or wait edge it keeps — nothing for a
	// span it skips.
	build := func(n int) (tl *trace.Timeline, kept int) {
		tl = trace.NewTimeline()
		for p := 0; p < 4; p++ {
			sh, k := rankShard(p, n/4)
			tl.Ingest(sh)
			kept += k
		}
		return tl, kept
	}
	measure := func(tl *trace.Timeline, f func(*trace.Timeline)) (count float64, size uint64) {
		f(tl) // warm the pools
		count = testing.AllocsPerRun(3, func() { f(tl) })
		_, size = allocated(func() { f(tl) })
		return count, size
	}
	export := func(tl *trace.Timeline) {
		if err := trace.WriteChrome(io.Discard, tl); err != nil {
			t.Fatal(err)
		}
	}
	small, _ := build(2000)
	large, keptLarge := build(20000)
	smallCount, smallSize := measure(small, export)
	largeCount, largeSize := measure(large, export)
	if largeCount > smallCount+smallCount/4+4 {
		t.Errorf("WriteChrome allocates %v times for 20000 spans and %v for 2000; want the same for the larger timeline", largeCount, smallCount)
	}
	if per := float64(largeSize-smallSize) / 18000; per > 32 {
		t.Errorf("WriteChrome allocates %d bytes for 20000 spans and %d for 2000: %.1f bytes per span, want at most 32", largeSize, smallSize, per)
	}
	analyze := func(tl *trace.Timeline) {
		if trace.Analyze(tl).Total == 0 {
			t.Fatal("empty critical path")
		}
	}
	_, keptSmall := build(2000)
	smallCount, smallSize = measure(small, analyze)
	largeCount, largeSize = measure(large, analyze)
	if largeCount > smallCount+smallCount/4+4 {
		t.Errorf("Analyze allocates %v times for 20000 spans and %v for 2000; want the same for the larger timeline", largeCount, smallCount)
	}
	if per := float64(largeSize-smallSize) / float64(keptLarge-keptSmall); per > 80 {
		t.Errorf("Analyze allocates %d bytes keeping %d records and %d keeping %d: %.1f bytes per record kept, want at most 80", largeSize, keptLarge, smallSize, keptSmall, per)
	}
	// The same timeline with three skipped spans added for every span there
	// is — nested calls, probe firings, flow-only edges — costs the same.
	padded, _ := build(20000)
	for p := 0; p < 4; p++ {
		proc := fmt.Sprintf("prog{%d}", p)
		sh := trace.Shard{Proc: proc, Node: "node0"}
		for i := 0; i < 15000; i++ {
			at := sim.Time(i * 2000)
			sh.Spans = append(sh.Spans,
				trace.Span{Seq: uint64(1<<32 + 4*i), Kind: trace.MPISpan, Proc: proc, Name: "MPI_Isend", Start: at, End: at + 10, Depth: 1},
				trace.Span{Seq: uint64(1<<32 + 4*i + 1), Kind: trace.ProbeEvent, Proc: proc, Name: "entry:MPI_Isend", Start: at, End: at},
				trace.Span{Seq: uint64(1<<32 + 4*i + 2), Kind: trace.EdgeEvent, Proc: proc, Name: "credit", Peer: "prog{0}", Start: at, End: at + 5, Flow: 1})
		}
		padded.Ingest(sh)
	}
	if _, paddedSize := measure(padded, analyze); paddedSize > largeSize+1024 {
		t.Errorf("Analyze allocates %d bytes with 180000 skipped spans added and %d without; want nothing per span skipped", paddedSize, largeSize)
	}
}
