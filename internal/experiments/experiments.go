// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the simulated substrate, producing the
// condensed Performance Consultant outputs, histograms, Jumpshot-style
// views, gprof profile, PPerfMark tables and Presta comparison that
// EXPERIMENTS.md records. Each experiment returns its rendered artifact plus
// a shape check against what the paper reports.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment key, e.g. "fig3", "table2".
	ID string
	// Title describes the artifact.
	Title string
	// Paper summarizes what the paper reports.
	Paper string
	// Measured summarizes what this reproduction measured.
	Measured string
	// Output is the rendered artifact (PC tree, table, histogram...).
	Output string
	// OK reports whether the paper's qualitative shape was reproduced.
	OK bool
	// Notes carries mismatches or caveats.
	Notes []string
}

func (r *Result) ok(cond bool, note string, args ...any) {
	if !cond {
		r.OK = false
		r.Notes = append(r.Notes, fmt.Sprintf(note, args...))
	}
}

// Render formats the result for the report.
func (r *Result) Render() string {
	var b strings.Builder
	status := "REPRODUCED"
	if !r.OK {
		status = "MISMATCH"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", strings.ToUpper(r.ID), r.Title, status)
	fmt.Fprintf(&b, "   paper:    %s\n", r.Paper)
	fmt.Fprintf(&b, "   measured: %s\n", r.Measured)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   note:     %s\n", n)
	}
	if r.Output != "" {
		for _, line := range strings.Split(strings.TrimRight(r.Output, "\n"), "\n") {
			b.WriteString("   | " + line + "\n")
		}
	}
	return b.String()
}

// registry of experiment runners by id. A runner reads every PPerfMark run it
// needs through the cell cache it is given.
var registry = map[string]func(*cells) *Result{}
var order []string

func register(id string, fn func(*cells) *Result) {
	registry[id] = fn
	order = append(order, id)
}

// IDs lists all experiment ids in evaluation order.
func IDs() []string { return append([]string(nil), order...) }

// Run executes one experiment by id, simulating every run it needs afresh.
func Run(id string) (*Result, error) {
	fn, ok := registry[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
	}
	return fn(new(cells)), nil
}

// RunAll executes every experiment, at most GOMAXPROCS at a time, over one
// cell cache, so each (program, personality) run is simulated once however
// many tables and figures show it. Results are in registration order.
func RunAll() []*Result {
	c := new(cells)
	out := make([]*Result, len(order))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, id := range order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			out[i] = registry[id](c)
		}()
	}
	wg.Wait()
	return out
}
