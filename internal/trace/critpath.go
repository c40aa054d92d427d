package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"pperf/internal/packed"
	"pperf/internal/sim"
)

// CriticalPath is the result of walking the merged timeline's
// happens-before edges backwards from the last event: an attribution of
// the end-to-end virtual runtime to the longest blocking chain, reported
// per function and per resource so it can be cross-checked against the
// Performance Consultant's diagnosis.
type CriticalPath struct {
	// Total is the walked virtual time (the global end of the trace); the
	// attributions below sum to exactly this.
	Total sim.Time
	// ByFunc charges time to MPI function names, "compute"/"system",
	// "(network)" for message transit on followed edges, and "(app)" for
	// untraced gaps.
	ByFunc map[string]sim.Time
	// ByResource charges the same time to the process it was spent on
	// ("(network)" for transit).
	ByResource map[string]sim.Time
	// Slack estimates, per traced function, how much the function could
	// slow down before the critical path shifts. Functions charged on the
	// path have zero slack by definition; an off-path function's slack is
	// the smallest end-of-run idle tail among the processes executing it —
	// the slowdown that would make one of those processes the new path
	// end. It is the per-process idle-tail approximation, not a full
	// what-if re-walk: it can overestimate when an interior wait edge
	// would shift the path before the process's finish line does.
	Slack map[string]sim.Time
	// Steps is the number of walk steps taken; Truncated reports the
	// safety cap fired (never in practice: every step moves t back or takes
	// a wait edge not taken before).
	Steps     int
	Truncated bool
}

// pathRec is what the walk reads of a span or an edge: kept for a track's
// depth-0 spans and incoming wait edges only, out of 152 bytes a Span.
type pathRec struct {
	start, end sim.Time
	seq        uint64
	name, peer string
	kind       Kind
}

// walk state: the per-proc depth-0 span and incoming wait-edge lists.
type procTrack struct {
	spans    []pathRec // depth-0 MPI + compute, disjoint, sorted by Start
	edges    []pathRec // incoming wait edges, sorted by End then Seq
	followed []bool    // per edge: the walk has taken it
}

// follow marks edge i taken, reporting whether it was not yet. The walk
// takes each edge once: one with Start == End == t moves it to the peer
// without moving t, and the peer's edge can lead straight back.
func (pt *procTrack) follow(i int) bool {
	was := pt.followed[i]
	pt.followed[i] = true
	return !was
}

// onPath classifies a span for the walk: a depth-0 MPI or compute span, an
// incoming wait edge, or neither.
func onPath(s *Span) (span, edge bool) {
	switch s.Kind {
	case MPISpan, ComputeSpan:
		return s.Depth == 0, false
	case EdgeEvent:
		return false, s.Wait
	}
	return false, false
}

const maxWalkSteps = 2_000_000

// Analyze walks the timeline's critical path. It returns a zero-total
// result for an empty timeline. Each track's shards are read where they lie,
// twice: once to count what the walk needs, once to keep exactly that.
func Analyze(tl *Timeline) *CriticalPath {
	cp := &CriticalPath{
		ByFunc:     make(map[string]sim.Time),
		ByResource: make(map[string]sim.Time),
		Slack:      make(map[string]sim.Time),
	}
	tracks := make(map[string]*procTrack)
	var endProc string
	var endT sim.Time
	var endSeq uint64
	var strs packed.Table
	for _, p := range tl.Procs() {
		if isToolTrack(p) {
			continue // tool activity is not on the application's path
		}
		var nSpans, nEdges int
		tl.each(&strs, p, func(s *Span) {
			span, edge := onPath(s)
			if span {
				nSpans++
			} else if edge {
				nEdges++
			}
		})
		pt := &procTrack{spans: make([]pathRec, 0, nSpans), edges: make([]pathRec, 0, nEdges), followed: make([]bool, nEdges)}
		tl.each(&strs, p, func(s *Span) {
			span, edge := onPath(s)
			if !span && !edge {
				return
			}
			rec := pathRec{s.Start, s.End, s.Seq, s.Name, s.Peer, s.Kind}
			if edge {
				pt.edges = append(pt.edges, rec)
				return
			}
			pt.spans = append(pt.spans, rec)
			if s.End > endT || (s.End == endT && s.Seq < endSeq) || endProc == "" {
				endProc, endT, endSeq = p, s.End, s.Seq
			}
		})
		slices.SortFunc(pt.spans, func(a, b pathRec) int {
			return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.seq, b.seq))
		})
		slices.SortFunc(pt.edges, func(a, b pathRec) int {
			return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.seq, b.seq))
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
		if cp.Steps > maxWalkSteps {
			cp.Truncated = true
			break
		}
		pt := tracks[proc]
		var s *pathRec
		if pt != nil {
			// Latest depth-0 span starting strictly before t.
			i := sort.Search(len(pt.spans), func(i int) bool { return pt.spans[i].start >= t })
			if i > 0 {
				s = &pt.spans[i-1]
			}
		}
		if s == nil {
			// Before the proc's first traced activity: follow a spawn edge
			// back to the parent if one exists, else the remainder is
			// untraced program time.
			if pt != nil {
				for i := range pt.edges {
					e := &pt.edges[i]
					if e.name == "spawn" && e.end <= t && pt.follow(i) {
						charge("(app)", proc, t-e.end)
						proc, t = e.peer, e.start
						goto next
					}
				}
			}
			charge("(app)", proc, t)
			t = 0
		next:
			continue
		}
		if s.end < t {
			// Gap between traced spans: application time.
			charge("(app)", proc, t-s.end)
			t = s.end
			continue
		}
		if s.kind == MPISpan {
			// Latest incoming wait edge landing inside this span at or
			// before t: the call blocked until then, so the cause lives on
			// the peer.
			i := sort.Search(len(pt.edges), func(i int) bool { return pt.edges[i].end > t }) - 1
			if i >= 0 && pt.edges[i].end > s.start {
				e := &pt.edges[i]
				if e.start <= e.end && (e.end < t || e.start < t || e.peer != proc) && pt.follow(i) {
					charge(s.name, proc, t-e.end)
					charge("(network)", "(network)", e.end-e.start)
					proc, t = e.peer, e.start
					continue
				}
			}
		}
		charge(s.name, proc, t-s.start)
		t = s.start
	}
	computeSlack(cp, tracks)
	return cp
}

// computeSlack fills cp.Slack: zero for every function charged on the
// walked path, and for the rest the minimum end-of-run idle tail among the
// processes that executed the function.
func computeSlack(cp *CriticalPath, tracks map[string]*procTrack) {
	for _, pt := range tracks {
		if len(pt.spans) == 0 {
			continue
		}
		var finish sim.Time
		for _, s := range pt.spans {
			if s.end > finish {
				finish = s.end
			}
		}
		tail := cp.Total - finish
		seen := map[string]bool{}
		for _, s := range pt.spans {
			if seen[s.name] {
				continue
			}
			seen[s.name] = true
			if cur, ok := cp.Slack[s.name]; !ok || tail < cur {
				cp.Slack[s.name] = tail
			}
		}
	}
	for fn, d := range cp.ByFunc {
		if d > 0 && fn != "(app)" && fn != "(network)" {
			cp.Slack[fn] = 0
		}
	}
}

// attribution is one sorted row for rendering.
type attribution struct {
	name string
	d    sim.Time
}

func sorted(m map[string]sim.Time) []attribution {
	out := make([]attribution, 0, len(m))
	for n, d := range m {
		out = append(out, attribution{n, d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d > out[j].d
		}
		return out[i].name < out[j].name
	})
	return out
}

// Dominant returns the MPI function (or compute state) carrying the
// largest share of the path, skipping the "(app)"/"(network)" buckets.
func (cp *CriticalPath) Dominant() (string, sim.Time) {
	for _, a := range sorted(cp.ByFunc) {
		if a.name == "(app)" || a.name == "(network)" {
			continue
		}
		return a.name, a.d
	}
	return "", 0
}

// DominantResource returns the process carrying the largest share.
func (cp *CriticalPath) DominantResource() (string, sim.Time) {
	for _, a := range sorted(cp.ByResource) {
		if a.name == "(network)" {
			continue
		}
		return a.name, a.d
	}
	return "", 0
}

// Render formats the attribution as the text report printed by
// `pperf -critical-path`.
func (cp *CriticalPath) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Critical path: %v end-to-end virtual time (%d steps)\n", cp.Total, cp.Steps)
	if cp.Truncated {
		b.WriteString("  [walk truncated at step cap]\n")
	}
	section := func(title string, m map[string]sim.Time) {
		fmt.Fprintf(&b, "  by %s:\n", title)
		for _, a := range sorted(m) {
			pct := 0.0
			if cp.Total > 0 {
				pct = 100 * float64(a.d) / float64(cp.Total)
			}
			fmt.Fprintf(&b, "    %-24s %10v %5.1f%%\n", a.name, a.d, pct)
		}
	}
	section("function", cp.ByFunc)
	section("resource", cp.ByResource)
	if len(cp.Slack) > 0 {
		b.WriteString("  slack (how much a function could slow before the path shifts):\n")
		rows := make([]attribution, 0, len(cp.Slack))
		for n, d := range cp.Slack {
			rows = append(rows, attribution{n, d})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].d != rows[j].d {
				return rows[i].d < rows[j].d
			}
			return rows[i].name < rows[j].name
		})
		for _, a := range rows {
			note := ""
			if a.d == 0 {
				note = "  (on critical path)"
			}
			fmt.Fprintf(&b, "    %-24s %10v%s\n", a.name, a.d, note)
		}
	}
	return b.String()
}
