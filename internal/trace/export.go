package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// of objects" flavor inside {"traceEvents": [...]}), loadable in Perfetto
// and chrome://tracing. Timestamps are microseconds of virtual time.
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

const (
	ranksPid   = 1 // process group for application rank tracks
	toolPid    = 2 // process group for daemon/transport tracks
	counterPid = 3 // process group for front-end histogram counter tracks
)

// usec converts virtual nanoseconds to trace-event microseconds.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// CounterTrack is one Perfetto counter track: a named value-over-time
// series rendered next to the span tracks. The front end derives one per
// whole-program metric series from its folding histograms.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// CounterPoint is one counter sample: the metric's rate over the histogram
// bin starting at TsNs.
type CounterPoint struct {
	TsNs  int64
	Value float64
}

// WriteChrome renders the merged timeline as Chrome trace-event JSON: one
// track per rank (pid 1) plus daemon/transport tracks (pid 2), complete
// ("X") events for MPI and compute spans, instants for probe firings and
// daemon activity, and flow ("s"/"f") events linking matched send→recv and
// RMA origin→target pairs.
func WriteChrome(w io.Writer, tl *Timeline) error {
	return WriteChromeWith(w, tl, nil)
}

// WriteChromeWith is WriteChrome plus counter tracks (pid 3): each
// CounterTrack becomes a "C"-phase series so histogram data lines up under
// the span tracks in Perfetto.
func WriteChromeWith(w io.Writer, tl *Timeline, counters []CounterTrack) error {
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
		case MPISpan, ComputeSpan:
			args := map[string]any{}
			if s.Kind == MPISpan {
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
		case ProbeEvent, DaemonSample, TransportEvent, MarkEvent:
			events = append(events, chromeEvent{
				Ph: "i", S: "t", Cat: s.Kind.String(), Pid: tr.pid, Tid: tr.tid,
				Name: s.Name, Ts: usec(int64(s.Start)),
			})
		case EdgeEvent:
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

	if notice := incompleteNotice(tl); notice != "" {
		// A run that ended with spans stranded in daemon queues must never
		// export as a complete trace.
		events = append(events, chromeEvent{
			Ph: "i", S: "g", Cat: "notice", Pid: toolPid,
			Name: notice,
		})
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// incompleteNotice returns the exporter-facing warning for spans stranded
// undelivered at end of run, or "" for a fully delivered trace.
func incompleteNotice(tl *Timeline) string {
	if n := tl.Undelivered(); n > 0 {
		return fmt.Sprintf("[trace incomplete: %d spans undelivered]", n)
	}
	return ""
}

// WriteCSV renders every merged span, one row each, with virtual times in
// integer nanoseconds (exact, byte-stable across runs of the same seed).
func WriteCSV(w io.Writer, tl *Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"seq", "kind", "proc", "node", "name", "start_ns", "end_ns",
		"depth", "peer", "tag", "bytes", "obj", "flow", "wait",
	}); err != nil {
		return err
	}
	for _, s := range tl.Spans() {
		err := cw.Write([]string{
			strconv.FormatUint(s.Seq, 10),
			s.Kind.String(),
			s.Proc,
			s.Node,
			s.Name,
			strconv.FormatInt(int64(s.Start), 10),
			strconv.FormatInt(int64(s.End), 10),
			strconv.Itoa(s.Depth),
			s.Peer,
			strconv.Itoa(s.Tag),
			strconv.Itoa(s.Bytes),
			s.Obj,
			strconv.FormatUint(s.Flow, 10),
			strconv.FormatBool(s.Wait),
		})
		if err != nil {
			return err
		}
	}
	if notice := incompleteNotice(tl); notice != "" {
		err := cw.Write([]string{
			"", "notice", "", "", notice, "", "", "", "", "", "", "", "", "",
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
