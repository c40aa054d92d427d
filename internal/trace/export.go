package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

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
//
// The document is the Chrome trace-event format's "JSON Array of objects"
// flavor inside {"traceEvents": [...]}, loadable in Perfetto and
// chrome://tracing, timestamps in microseconds of virtual time. It is
// streamed, each event appended to one reused buffer written out in blocks,
// and its bytes are exactly what encoding/json renders for the same events:
// fields in the order name, ph, cat, pid, tid, ts, dur, id, bp, s, args
// (empty ones but ph, pid, tid and ts omitted), args keys sorted, its float
// format and its HTML-safe string escaping.
func WriteChromeWith(w io.Writer, tl *Timeline, counters []CounterTrack) error {
	e := &chromeEncoder{w: w, buf: make([]byte, 0, chromeBlock+chromeBlock/4), quoted: map[string]string{}, flowCats: map[string]string{}}
	e.raw(`{"traceEvents":[`)

	procs := tl.Procs()
	type track struct{ pid, tid int }
	tracks := make(map[string]track, len(procs))
	e.metaName(ranksPid, 0, "process_name", "MPI ranks")
	e.metaName(toolPid, 0, "process_name", "tool")
	nextTid := map[int]int{}
	for _, p := range procs {
		pid := trackPid(p)
		tr := track{pid, nextTid[pid]}
		nextTid[pid]++
		tracks[p] = tr
		label := p
		if node := tl.Node(p); node != "" {
			label = fmt.Sprintf("%s (%s)", p, node)
		}
		e.metaName(tr.pid, tr.tid, "thread_name", label)
		e.metaSortIndex(tr.pid, tr.tid)
	}

	tl.eachOrdered(func(s *Span) {
		tr := tracks[s.Proc]
		switch s.Kind {
		case MPISpan, ComputeSpan:
			e.open(s.Name, "X", s.Kind.String(), tr.pid, tr.tid, int64(s.Start))
			if dur := usec(int64(s.End - s.Start)); dur != 0 {
				e.raw(`,"dur":`).float(dur)
			}
			if s.Kind == MPISpan {
				e.raw(`,"args":{`)
				if s.Bytes != 0 {
					e.raw(`"bytes":`).int(s.Bytes).raw(`,`)
				}
				e.raw(`"depth":`).int(s.Depth)
				if s.Obj != "" {
					e.raw(`,"object":`).str(s.Obj)
				}
				if s.Peer != "" {
					e.raw(`,"peer":`).str(s.Peer)
				}
				if s.Tag != 0 {
					e.raw(`,"tag":`).int(s.Tag)
				}
				e.raw(`}`)
			}
			e.close()
		case ProbeEvent, DaemonSample, TransportEvent, MarkEvent:
			e.open(s.Name, "i", s.Kind.String(), tr.pid, tr.tid, int64(s.Start)).raw(`,"s":"t"`).close()
		case EdgeEvent:
			src, ok := tracks[s.Peer]
			if s.Flow == 0 || !ok {
				return
			}
			cat, ok := e.flowCats[s.Name]
			if !ok {
				cat = "flow:" + s.Name
				e.flowCats[s.Name] = cat
			}
			e.open(s.Name, "s", cat, src.pid, src.tid, int64(s.Start)).raw(`,"id":`).uint(s.Flow).close()
			e.open(s.Name, "f", cat, tr.pid, tr.tid, int64(s.End)).raw(`,"id":`).uint(s.Flow).raw(`,"bp":"e"`).close()
		}
	})

	if len(counters) > 0 {
		e.metaName(counterPid, 0, "process_name", "front-end histograms")
		for i, ct := range counters {
			e.metaSortIndex(counterPid, i)
			for _, p := range ct.Points {
				e.open(ct.Name, "C", "histogram", counterPid, i, p.TsNs).raw(`,"args":{"value":`).float(p.Value).raw(`}`).close()
			}
		}
	}

	if notice := incompleteNotice(tl); notice != "" {
		// A run that ended with spans stranded in daemon queues must never
		// export as a complete trace.
		e.open(notice, "i", "notice", toolPid, 0, 0).raw(`,"s":"g"`).close()
	}

	e.raw(`],"displayTimeUnit":"ms"}` + "\n").flush()
	return e.err
}

// chromeBlock is the size at which the encoder's buffer is written out.
const chromeBlock = 32 << 10

// chromeEncoder appends trace events to one buffer, writing it out a block
// at a time. The first write error sticks and is WriteChromeWith's result.
type chromeEncoder struct {
	w      io.Writer
	buf    []byte
	events int
	err    error
	// quoted caches each distinct string's JSON form, rendered by
	// encoding/json itself (a timeline draws its names from a tiny
	// vocabulary); flowCats a flow's category, "flow:" + the edge's name.
	quoted, flowCats map[string]string
}

func (e *chromeEncoder) raw(s string) *chromeEncoder {
	e.buf = append(e.buf, s...)
	return e
}

func (e *chromeEncoder) int(v int) *chromeEncoder {
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
	return e
}

func (e *chromeEncoder) uint(v uint64) *chromeEncoder {
	e.buf = strconv.AppendUint(e.buf, v, 10)
	return e
}

func (e *chromeEncoder) str(s string) *chromeEncoder {
	q, ok := e.quoted[s]
	if !ok {
		b, _ := json.Marshal(s) // a string always marshals
		q = string(b)
		e.quoted[s] = q
	}
	return e.raw(q)
}

// float appends f the way encoding/json formats a float64: the shortest
// form that round-trips, an exponent only below 1e-6 and from 1e21, and a
// two-digit exponent's leading zero dropped (e-09 becomes e-9). Like
// encoding/json it has no form for NaN and the infinities: the export fails.
func (e *chromeEncoder) float(f float64) *chromeEncoder {
	if e.err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		e.err = fmt.Errorf("trace: unsupported value %v in a Chrome trace export", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && n >= 4 && e.buf[n-4] == 'e' && (e.buf[n-3] == '-' || e.buf[n-3] == '+') && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
	return e
}

// open starts one event with the fields every event leads with (ph is a
// literal that needs no escaping); the caller appends the rest, then close.
func (e *chromeEncoder) open(name, ph, cat string, pid, tid int, tsNs int64) *chromeEncoder {
	if e.events++; e.events > 1 {
		e.raw(`,`)
	}
	e.raw(`{`)
	if name != "" {
		e.raw(`"name":`).str(name).raw(`,`)
	}
	e.raw(`"ph":"`).raw(ph).raw(`"`)
	if cat != "" {
		e.raw(`,"cat":`).str(cat)
	}
	return e.raw(`,"pid":`).int(pid).raw(`,"tid":`).int(tid).raw(`,"ts":`).float(usec(tsNs))
}

// close ends the event and writes the buffer out once it holds a block.
func (e *chromeEncoder) close() {
	if e.raw(`}`); len(e.buf) >= chromeBlock {
		e.flush()
	}
}

func (e *chromeEncoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// metaName emits the metadata event naming a process group or a thread,
// metaSortIndex the one ordering a thread by its tid.
func (e *chromeEncoder) metaName(pid, tid int, what, label string) {
	e.open(what, "M", "", pid, tid, 0).raw(`,"args":{"name":`).str(label).raw(`}`).close()
}

func (e *chromeEncoder) metaSortIndex(pid, tid int) {
	e.open("thread_sort_index", "M", "", pid, tid, 0).raw(`,"args":{"sort_index":`).int(tid).raw(`}`).close()
}

// incompleteNotice returns the exporter-facing warning for spans stranded
// undelivered at end of run, or "" for a fully delivered trace.
func incompleteNotice(tl *Timeline) string {
	if n := tl.Stats().Undelivered; n > 0 {
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
	var err error
	tl.eachOrdered(func(s *Span) {
		if err != nil {
			return
		}
		err = cw.Write([]string{
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
	})
	if err != nil {
		return err
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
