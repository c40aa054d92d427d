package main

import "time"

// span is one timed call from the harness into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	// Rep tags the span with its workload and repetition, the identifier
	// all spans of one rep share.
	Rep     string `json:"rep"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRec records spans in memory; the child hands them to the parent at
// exit, which writes them out with the run. A nil recorder records
// nothing, which is how the end-to-end reps run.
type spanRec struct {
	rep   string
	t0    time.Time
	spans []span
	stack []int
}

func newSpanRec(rep string) *spanRec { return &spanRec{rep: rep, t0: time.Now()} }

// do runs f inside a span named name, nested under the span in progress.
func (r *spanRec) do(name string, f func()) {
	if r == nil {
		f()
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Rep: r.rep, StartNS: int64(time.Since(r.t0))})
	r.stack = append(r.stack, id)
	f()
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].EndNS = int64(time.Since(r.t0))
}

// spanTotals is the per-name summary of a span list.
type spanTotals struct {
	Count  int
	SelfNS int64 // duration minus the part covered by direct children
}

// selfTimes sums each span name's self time: a span's duration minus the
// durations of its direct children. Spans from several recorders may be
// concatenated as long as IDs are unique per (Rep, ID).
func selfTimes(spans []span) map[string]spanTotals {
	type key struct {
		rep string
		id  int
	}
	child := map[key]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			child[key{s.Rep, s.Parent}] += s.EndNS - s.StartNS
		}
	}
	out := map[string]spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.SelfNS += s.EndNS - s.StartNS - child[key{s.Rep, s.ID}]
		out[s.Name] = t
	}
	return out
}
