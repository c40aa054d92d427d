// Package gprofsim reproduces the gprof flat profile the paper uses to
// verify Paradyn's CPU measurements on a non-MPI build of hot-procedure
// (Fig 19): per-function call counts, self seconds, and microseconds per
// call, rendered in gprof's column format.
package gprofsim

import (
	"fmt"
	"sort"
	"strings"

	"pperf/internal/mpi"
	"pperf/internal/probe"
	"pperf/internal/sim"
)

// FuncStat is one row of the flat profile.
type FuncStat struct {
	Name    string
	Calls   int64
	Self    sim.Duration // CPU time attributed to the function itself
	PerCall sim.Duration
}

// Profile is a completed flat profile.
type Profile struct {
	Total sim.Duration
	Funcs []FuncStat
}

// Profiler samples self-CPU per function by bracketing traced calls, the
// moral equivalent of gprof's PC sampling plus mcount call counting.
type Profiler struct {
	calls map[string]int64
	self  map[string]sim.Duration
	// stack of (function, cpu-at-entry, callee-cpu-accumulator)
	stack []frame
}

type frame struct {
	name      string
	cpuEnter  sim.Duration
	calleeCPU sim.Duration
}

// Attach instruments every current and future process of the world.
// (gprof profiles a single process; attaching to a 1-rank world reproduces
// the paper's non-MPI run.)
func Attach(w *mpi.World) *Profiler {
	p := &Profiler{calls: map[string]int64{}, self: map[string]sim.Duration{}}
	w.AddHooks(&mpi.Hooks{
		FunctionDiscovered: func(r *mpi.Rank, f *probe.Function) { p.hook(r, f.Name) },
	})
	return p
}

// hook instruments one function the first time it is seen.
func (p *Profiler) hook(r *mpi.Rank, fname string) {
	r.Probes().Insert(fname, probe.Entry, probe.Prepend, func(ev *probe.Event) {
		p.calls[fname]++
		p.stack = append(p.stack, frame{name: fname, cpuEnter: ev.CPUTime})
	})
	r.Probes().Insert(fname, probe.Return, probe.Append, func(ev *probe.Event) {
		n := len(p.stack)
		if n == 0 || p.stack[n-1].name != fname {
			return
		}
		fr := p.stack[n-1]
		p.stack = p.stack[:n-1]
		total := ev.CPUTime - fr.cpuEnter
		p.self[fname] += total - fr.calleeCPU
		if n > 1 {
			p.stack[n-2].calleeCPU += total
		}
	})
}

// Snapshot produces the flat profile, sorted by self time descending (then
// name), exactly as gprof orders its output.
func (p *Profiler) Snapshot() *Profile {
	prof := &Profile{}
	for name := range p.calls {
		st := FuncStat{Name: name, Calls: p.calls[name], Self: p.self[name]}
		if st.Calls > 0 {
			st.PerCall = st.Self / sim.Duration(st.Calls)
		}
		prof.Total += st.Self
		prof.Funcs = append(prof.Funcs, st)
	}
	sort.Slice(prof.Funcs, func(i, j int) bool {
		if prof.Funcs[i].Self != prof.Funcs[j].Self {
			return prof.Funcs[i].Self > prof.Funcs[j].Self
		}
		return prof.Funcs[i].Name < prof.Funcs[j].Name
	})
	return prof
}

// Percent returns the fraction of total self time in the named function.
func (pr *Profile) Percent(name string) float64 {
	if pr.Total == 0 {
		return 0
	}
	for _, f := range pr.Funcs {
		if f.Name == name {
			return f.Self.Seconds() / pr.Total.Seconds() * 100
		}
	}
	return 0
}

// Render formats the profile in gprof's flat-profile layout (Fig 19).
func (pr *Profile) Render() string {
	var b strings.Builder
	b.WriteString("  %   cumulative   self              self     total\n")
	b.WriteString(" time   seconds   seconds    calls  us/call  us/call  name\n")
	var cum sim.Duration
	for _, f := range pr.Funcs {
		cum += f.Self
		pct := 0.0
		if pr.Total > 0 {
			pct = f.Self.Seconds() / pr.Total.Seconds() * 100
		}
		us := float64(f.PerCall) / 1e3
		fmt.Fprintf(&b, "%6.2f %9.2f %9.2f %8d %8.2f %8.2f  %s\n",
			pct, cum.Seconds(), f.Self.Seconds(), f.Calls, us, us, f.Name)
	}
	return b.String()
}
