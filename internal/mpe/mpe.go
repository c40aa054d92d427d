// Package mpe is the reproduction's stand-in for the MPE logging libraries
// and the Jumpshot-3 viewer, which the paper uses as an independent
// comparator for the tool's findings (§5.1.4–5.1.6, Figs 12, 13, 16, 17):
// it renders every outermost MPI call as a state interval per process, in
// Jumpshot's Statistical Preview (average number of processes in each state
// over time) and Time Lines windows as text. The intervals come from the
// shared internal/trace event stream — mpe is a consumer of the tracing
// subsystem, not a second instrumentation layer.
package mpe

import (
	"fmt"
	"sort"
	"strings"

	"pperf/internal/mpi"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// Interval is one logged state: a process was inside an MPI call from Start
// to End.
type Interval struct {
	Proc  string
	State string // outermost MPI function name
	Start sim.Time
	End   sim.Time
}

// Tracer collects state intervals from every process of a world. Like MPE,
// it is link-time tracing: attach before launching programs.
type Tracer struct {
	intervals []Interval
}

// Attach subscribes an MPE tracer to the world's trace event stream, arming
// the stream first when no tracing was configured. Only outermost (depth 0)
// MPI spans become intervals: internal nested calls merge into the enclosing
// state, as Jumpshot shows.
func Attach(w *mpi.World) *Tracer {
	t := &Tracer{}
	tr := w.Tracer
	if tr == nil {
		tr = trace.New(nil)
		w.Tracer = tr
	}
	tr.AddObserver(func(s trace.Span) {
		if s.Kind != trace.MPISpan || s.Depth != 0 {
			return
		}
		t.intervals = append(t.intervals, Interval{
			Proc: s.Proc, State: displayState(s.Name), Start: s.Start, End: s.End,
		})
	})
	return t
}

// displayState canonicalizes PMPI_ symbols to the MPI_ state names Jumpshot
// displays.
func displayState(fn string) string {
	return strings.TrimPrefix(fn, "P")
}

// Procs lists the traced processes, sorted.
func (t *Tracer) Procs() []string {
	set := map[string]bool{}
	for _, iv := range t.intervals {
		set[iv.Proc] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// States lists the observed states, sorted by total time descending.
func (t *Tracer) States() []string {
	totals := map[string]sim.Duration{}
	for _, iv := range t.intervals {
		totals[iv.State] += iv.End.Sub(iv.Start)
	}
	out := make([]string, 0, len(totals))
	for s := range totals {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if totals[out[i]] != totals[out[j]] {
			return totals[out[i]] > totals[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Span returns the trace's time extent.
func (t *Tracer) Span() (sim.Time, sim.Time) {
	if len(t.intervals) == 0 {
		return 0, 0
	}
	lo, hi := t.intervals[0].Start, t.intervals[0].End
	for _, iv := range t.intervals {
		if iv.Start < lo {
			lo = iv.Start
		}
		if iv.End > hi {
			hi = iv.End
		}
	}
	return lo, hi
}

// StateTime returns the total time proc spent in state ("" proc = all).
func (t *Tracer) StateTime(proc, state string) sim.Duration {
	var d sim.Duration
	for _, iv := range t.intervals {
		if iv.State == state && (proc == "" || iv.Proc == proc) {
			d += iv.End.Sub(iv.Start)
		}
	}
	return d
}

// AvgConcurrency returns the average number of processes simultaneously in
// the state over the trace span — the number the paper reads off Jumpshot's
// Statistical Preview ("approximately three of them were executing in
// MPI_Barrier at any given time", Fig 17).
func (t *Tracer) AvgConcurrency(state string) float64 {
	lo, hi := t.Span()
	if hi <= lo {
		return 0
	}
	return t.StateTime("", state).Seconds() / hi.Sub(lo).Seconds()
}

// StatisticalPreview renders per-state average concurrency with bars, like
// Jumpshot-3's Statistical Preview window.
func (t *Tracer) StatisticalPreview() string {
	var b strings.Builder
	b.WriteString("Statistical Preview (average processes in state)\n")
	n := len(t.Procs())
	for _, s := range t.States() {
		avg := t.AvgConcurrency(s)
		bar := strings.Repeat("█", int(avg/float64(max(n, 1))*40+0.5))
		fmt.Fprintf(&b, "  %-18s %5.2f %s\n", s, avg, bar)
	}
	return b.String()
}

// StateCalls returns how many intervals (outermost calls) were logged for a
// state, for proc ("" = all).
func (t *Tracer) StateCalls(proc, state string) int {
	n := 0
	for _, iv := range t.intervals {
		if iv.State == state && (proc == "" || iv.Proc == proc) {
			n++
		}
	}
	return n
}

// StatisticsTable renders a Vampir-style per-operation statistics table:
// operation count, total time, and mean time per call — the kind of MPI
// statistics §2 credits Vampir with for MPI-I/O.
func (t *Tracer) StatisticsTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %12s %12s\n", "state", "calls", "total(s)", "mean(ms)")
	for _, s := range t.States() {
		calls := t.StateCalls("", s)
		total := t.StateTime("", s)
		mean := 0.0
		if calls > 0 {
			mean = total.Seconds() * 1000 / float64(calls)
		}
		fmt.Fprintf(&b, "%-20s %8d %12.4f %12.4f\n", s, calls, total.Seconds(), mean)
	}
	return b.String()
}

// TimeLines renders a text Time Lines window: one row per process, one
// column per time bucket, the bucket's dominant state abbreviated to its
// initial (MPI_Recv → R). Idle/computing time is '.'.
func (t *Tracer) TimeLines(width int) string {
	lo, hi := t.Span()
	if hi <= lo || width <= 0 {
		return "(empty trace)"
	}
	procs := t.Procs()
	type cell map[string]sim.Duration
	grid := map[string][]cell{}
	for _, p := range procs {
		grid[p] = make([]cell, width)
	}
	span := hi.Sub(lo)
	bucketOf := func(ts sim.Time) int {
		i := int(float64(ts.Sub(lo)) / float64(span) * float64(width))
		if i >= width {
			i = width - 1
		}
		return i
	}
	for _, iv := range t.intervals {
		b0, b1 := bucketOf(iv.Start), bucketOf(iv.End)
		for b := b0; b <= b1; b++ {
			if grid[iv.Proc][b] == nil {
				grid[iv.Proc][b] = cell{}
			}
			grid[iv.Proc][b][iv.State] += iv.End.Sub(iv.Start) / sim.Duration(b1-b0+1)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Time Lines %v – %v\n", lo, hi)
	for _, p := range procs {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
			// Ties break on state name so the rendering is deterministic
			// (map iteration order is not).
			var best sim.Duration
			var bestState string
			for state, d := range grid[p][i] {
				if d > best || (d == best && bestState != "" && state < bestState) {
					best = d
					bestState = state
					line[i] = stateInitial(state)
				}
			}
		}
		fmt.Fprintf(&b, "  %-14s |%s|\n", p, line)
	}
	b.WriteString("  legend: initial letter of dominant MPI state per bucket; '.' = computing\n")
	return b.String()
}

// stateInitial abbreviates an MPI state for the timeline.
func stateInitial(state string) byte {
	s := strings.TrimPrefix(state, "MPI_")
	if s == "" {
		return '?'
	}
	switch {
	case strings.HasPrefix(s, "Win_"):
		return 'W'
	case strings.HasPrefix(s, "File_"):
		return 'F'
	}
	return s[0]
}
