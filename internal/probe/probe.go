// Package probe implements the dynamic-instrumentation layer of the tool:
// the analogue of Paradyn's runtime code patching. Simulated programs route
// every traced function call (MPI routines and application procedures)
// through a per-process dispatch table; the performance tool inserts and
// deletes probe handlers at function entry and return points *while the
// program runs*, which is what lets the Performance Consultant pay the cost
// of measurement only where a problem is suspected.
package probe

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"pperf/internal/sim"
)

// Where identifies an instrumentation point within a function.
type Where int

const (
	// Entry instruments the function's entry (Paradyn's func.entry).
	Entry Where = iota
	// Return instruments the function's return (Paradyn's func.return).
	Return
)

func (w Where) String() string {
	if w == Entry {
		return "entry"
	}
	return "return"
}

// Order says where in an instrumentation point's probe list a new probe
// lands, matching MDL's append/prepend.
type Order int

const (
	Append Order = iota
	Prepend
)

// Function describes an instrumentable function: its symbol name and the
// module (source file or library) it belongs to, which is where it appears
// in the tool's Code resource hierarchy.
type Function struct {
	Name   string
	Module string
}

// Event is the information delivered to a probe handler when its
// instrumentation point executes.
type Event struct {
	Proc  *Process
	Func  *Function
	Where Where
	// Args are the traced call's arguments ($arg[n] in MDL). At Return
	// points the same argument vector as at Entry is visible, matching how
	// Paradyn reads registers/stack at the return point.
	Args []Arg
	// Time is the process-local virtual time of the event.
	Time sim.Time
	// CPUTime is the process's accumulated user CPU (process) time.
	CPUTime sim.Duration
}

// Arg is one argument of a traced call, as the C call frame holds it: an
// integer (a count, rank, tag, displacement, flag) in Int, unboxed; a handle
// (communicator, window, file, request, datatype, op, info), a string, or a
// buffer, request array or group — the address of its first element, nil
// when empty — in Ref. A datatype, an integer handle, sets both. The zero Arg
// is C's 0 or NULL.
type Arg struct {
	Int int
	Ref any
}

// Arg returns Args[i], or the zero Arg if out of range (MDL's $arg[i]).
func (ev *Event) Arg(i int) Arg {
	if i < 0 || i >= len(ev.Args) {
		return Arg{}
	}
	return ev.Args[i]
}

// Handler is a probe body. Handlers run synchronously in the traced
// process's context. The Event is the process's one reusable record and
// Args is the call frame's own vector: both are valid only during the call,
// so a handler that wants something later copies it out (an integer or a
// handle may be kept; the *Event, the Args slice and the memory a buffer
// argument points at may not).
type Handler func(ev *Event)

// Code is a probe body that takes its state as an argument, so one Code
// serves every probe that runs it; ev is as for a Handler.
type Code func(arg any, ev *Event)

// runHandler is the Code of Insert's probes, whose argument is the Handler.
func runHandler(arg any, ev *Event) { arg.(Handler)(ev) }

// ID identifies an inserted probe so it can be deleted: a per-process
// sequence number over slotBits bits of its function's slot in Process.funcs,
// or of waitSlot for a setRec.
type ID int64

const (
	slotBits = 20
	waitSlot = 1<<slotBits - 1
)

type probeRec struct {
	id   ID
	code Code
	arg  any
}

// setRec is a probe made by InsertSet (or Insert on a function not yet
// called), kept until Remove: it joins each list at its function's first call.
type setRec struct {
	probeRec
	fns   []string
	where Where
	ord   Order
}

// funcInstr is one function's slot: its probe lists, empty until its first
// call sets fn, and how many setRecs wait for that call. Process.funcs keeps
// slots by value, so a new function allocates no object of its own.
type funcInstr struct {
	entry, ret []probeRec
	fn         *Function
	waiting    int
}

// firstCap is the capacity of a point's first backing array. Only called
// functions get lists: of the 863 one suite-sweep repetition creates, 296
// peak at one probe, 227 at 2–8, 178 at 9–64 and 162 above 64. At 8 the
// first array holds 61 % of lists for good and spares every longer one the
// 1→2→4→8 growth, for 256 bytes a point.
const firstCap = 8

// Clock provides a process's notion of time to the probe layer.
type Clock interface {
	// Now is the process's local virtual time.
	Now() sim.Time
	// CPUTime is the process's accumulated user CPU time.
	CPUTime() sim.Duration
	// AddOverhead charges instrumentation-execution cost to the process.
	AddOverhead(d sim.Duration)
}

// Process holds one simulated process's instrumentation state. It is not
// safe for concurrent use; the simulation engine guarantees sequential
// execution.
type Process struct {
	name  string
	clock Clock
	// slots maps a function name to its slot in funcs and names; called
	// lists the functions in first-call order, sets the setRecs in ID order.
	slots  map[string]ID
	funcs  []funcInstr
	names  []string
	called []*Function
	sets   []setRec
	nextID ID
	active int // inserted probes not yet removed, one per function a set names

	// PerProbeCost is the virtual-time overhead charged to the process for
	// each probe execution (the instrumentation-perturbation model; see the
	// probe-overhead ablation).
	PerProbeCost sim.Duration

	// Executions counts probe-handler executions, for overhead reporting.
	Executions int64

	// stack is the dynamic call stack of traced functions, used for
	// call-graph discovery and inclusive-metric constraints; args[i] is the
	// argument vector of the call at stack[i], carried from its Enter to its
	// Leave. A popped slot keeps its backing array, so a call at a depth the
	// process has reached before copies its arguments without allocating.
	stack []*Function
	args  [][]Arg
	// ev is the record every probe execution is handed (see Handler).
	ev Event
	// firing counts the fire calls in progress. While it is zero nothing
	// holds a probe list, so Insert and Remove edit the list in place; a
	// running handler loop iterates a snapshot, so an edit made from inside
	// one builds a new list instead and the loop finishes the old one.
	firing int

	// edges records observed caller→callee pairs for the Performance
	// Consultant's call-graph-based search; edgeLog lists them in order of
	// first sight, so a reader with a cursor takes only the new ones.
	edges   map[[2]string]bool
	edgeLog [][2]string

	// OnFirstCall, if non-nil, is invoked the first time each distinct
	// function executes in this process (function resource discovery), after
	// the probes waiting for that call have joined its lists. It is one slot,
	// set by whoever creates the process; mpi fans it out to every listener
	// as Hooks.FunctionDiscovered.
	OnFirstCall func(f *Function)

	// OnFire, if non-nil, is invoked after an instrumentation point runs its
	// handlers: fn is the function, w the point, n the handler count, t the
	// process-local time. The tracing subsystem uses it to record probe
	// firings without the probe layer depending on the trace package.
	OnFire func(fn string, w Where, n int, t sim.Time)
}

// NewProcess creates the instrumentation state for one process.
func NewProcess(name string, clock Clock) *Process {
	return &Process{
		name:  name,
		clock: clock,
		slots: map[string]ID{},
		edges: map[[2]string]bool{},
	}
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// slot returns the named function's slot, making one on its first use.
func (p *Process) slot(fn string) ID {
	slot, ok := p.slots[fn]
	if !ok {
		slot = ID(len(p.funcs))
		p.slots[fn] = slot
		p.funcs = append(p.funcs, funcInstr{})
		p.names = append(p.names, fn)
	}
	return slot
}

// Insert adds a probe at the given point of the named function and returns
// its removal ID. Insertion takes effect immediately: the next execution of
// the point runs the handler. This is the "dynamic" in dynamic
// instrumentation — it happens mid-run.
func (p *Process) Insert(fn string, w Where, ord Order, h Handler) ID {
	slot := p.slot(fn)
	if p.funcs[slot].fn == nil { // a set of one name, from names, never rewritten
		return p.InsertSet(p.names[slot:slot+1:slot+1], w, ord, runHandler, h)
	}
	p.nextID++
	id := p.nextID<<slotBits | slot
	p.place(slot, w, ord, probeRec{id, runHandler, h})
	p.active++
	return id
}

// InsertSet adds one probe, code run with arg, at the given point of every
// function in fns and returns the one ID that removes it from all of them.
// A function not yet called receives it at its first call, where an Insert
// made now would have put it. fns is kept, unchanged, until Remove.
func (p *Process) InsertSet(fns []string, w Where, ord Order, code Code, arg any) ID {
	p.nextID++
	s := setRec{probeRec{p.nextID<<slotBits | waitSlot, code, arg}, fns, w, ord}
	for _, fn := range fns {
		slot := p.slot(fn)
		if fi := &p.funcs[slot]; fi.fn == nil {
			fi.waiting++
		} else {
			p.place(slot, w, ord, s.probeRec)
		}
	}
	p.active += len(fns)
	p.sets = append(p.sets, s)
	return s.id
}

// place puts rec on a point of a called function: in place, or into a new
// list at the front while a handler loop may be running over this one.
func (p *Process) place(slot ID, w Where, ord Order, rec probeRec) {
	list := &p.funcs[slot].entry
	if w == Return {
		list = &p.funcs[slot].ret
	}
	if cap(*list) == 0 {
		*list = make([]probeRec, 0, firstCap)
	}
	switch {
	case ord == Append:
		*list = append(*list, rec) // past the end of any snapshot
	case p.firing > 0:
		*list = append([]probeRec{rec}, *list...)
	default:
		*list = slices.Insert(*list, 0, rec)
	}
}

// Remove deletes a previously inserted probe. Removing an unknown ID is a
// no-op, mirroring how deleting already-removed instrumentation is harmless.
func (p *Process) Remove(id ID) {
	if slot := id & waitSlot; slot < ID(len(p.funcs)) { // never waitSlot
		fi := &p.funcs[slot]
		fi.entry = p.removeRec(fi.entry, id)
		fi.ret = p.removeRec(fi.ret, id)
		return
	}
	i, ok := slices.BinarySearchFunc(p.sets, id, func(s setRec, id ID) int { return cmp.Compare(s.id, id) })
	if !ok {
		return
	}
	s := &p.sets[i]
	for _, fn := range s.fns {
		fi := &p.funcs[p.slots[fn]]
		switch {
		case fi.fn == nil:
			fi.waiting--
			p.active--
		case s.where == Entry:
			fi.entry = p.removeRec(fi.entry, id)
		default:
			fi.ret = p.removeRec(fi.ret, id)
		}
	}
	p.sets = slices.Delete(p.sets, i, i+1)
}

// removeRec deletes the probe from the list: in place, clearing the vacated
// slot so the dropped handler is not pinned, or into a new list while a
// handler loop may be running over this one.
func (p *Process) removeRec(list []probeRec, id ID) []probeRec {
	for i, r := range list {
		if r.id != id {
			continue
		}
		p.active--
		if p.firing > 0 {
			return append(list[:i:i], list[i+1:]...)
		}
		return slices.Delete(list, i, i+1)
	}
	return list
}

// ActiveProbes returns the number of currently inserted probes.
func (p *Process) ActiveProbes() int { return p.active }

// Enter fires the entry point of f. Programs and the MPI runtime call this
// (via higher-level wrappers) at the start of every traced function.
func (p *Process) Enter(f *Function, args ...Arg) {
	slot := p.slot(f.Name)
	if p.funcs[slot].fn == nil {
		p.firstCall(f, slot)
	}
	n := len(p.stack)
	if n > 0 {
		if e := [2]string{p.stack[n-1].Name, f.Name}; !p.edges[e] {
			p.edges[e] = true
			p.edgeLog = append(p.edgeLog, e)
		}
	}
	p.stack = append(p.stack, f)
	if n == len(p.args) {
		p.args = append(p.args, nil)
	}
	p.args[n] = append(p.args[n][:0], args...)
	p.fire(f, Entry, p.funcs[slot].entry, p.args[n])
}

// firstCall marks f called and places the probes waiting for it in ID
// order, each where Insert would have put it, before OnFirstCall, so a probe
// inserted there lands after them.
func (p *Process) firstCall(f *Function, slot ID) {
	p.called = append(p.called, f)
	fi := &p.funcs[slot]
	fi.fn = f
	for i := 0; fi.waiting > 0; i++ {
		s := &p.sets[i]
		for _, fn := range s.fns {
			if fn == f.Name {
				fi.waiting--
				p.place(slot, s.where, s.ord, s.probeRec)
			}
		}
	}
	if p.OnFirstCall != nil {
		p.OnFirstCall(f)
	}
}

// SetArg sets argument i of the innermost traced call — an out-parameter
// whose value exists only once the call has run (the new communicator of
// MPI_Comm_dup, the window of MPI_Win_create), so that the return point
// sees it. Out of range is a no-op.
func (p *Process) SetArg(i int, v Arg) {
	if n := len(p.stack); n > 0 && i >= 0 && i < len(p.args[n-1]) {
		p.args[n-1][i] = v
	}
}

// Leave fires the return point of f — its handlers see the argument vector
// the call entered with — and pops the call stack.
func (p *Process) Leave(f *Function) {
	list := p.funcs[p.slot(f.Name)].ret
	n := len(p.stack) - 1
	if n < 0 || p.stack[n] != f {
		p.fire(f, Return, list, nil)
		return
	}
	p.fire(f, Return, list, p.args[n])
	p.stack = p.stack[:n]
	clear(p.args[n]) // the idle slot must not pin the call's buffers and handles
}

// fire runs list, the probes installed at (f, w).
func (p *Process) fire(f *Function, w Where, list []probeRec, args []Arg) {
	if len(list) == 0 {
		return
	}
	p.ev = Event{
		Proc: p, Func: f, Where: w, Args: args,
		Time: p.clock.Now(), CPUTime: p.clock.CPUTime(),
	}
	p.firing++
	for _, r := range list {
		r.code(r.arg, &p.ev)
		p.Executions++
	}
	p.firing--
	if p.PerProbeCost > 0 {
		p.clock.AddOverhead(sim.Duration(len(list)) * p.PerProbeCost)
	}
	if p.OnFire != nil {
		p.OnFire(f.Name, w, len(list), p.clock.Now())
	}
}

// CalledFunctions returns the functions called so far, in first-call order.
func (p *Process) CalledFunctions() []*Function { return p.called }

// FunctionsOfModule returns, in a new slice, the module's functions in first-call order.
func (p *Process) FunctionsOfModule(module string) []string {
	n := 0
	for _, f := range p.called {
		if f.Module == module {
			n++
		}
	}
	fns := make([]string, 0, n)
	for _, f := range p.called {
		if f.Module == module {
			fns = append(fns, f.Name)
		}
	}
	return fns
}

// InFunction reports whether the named function is on the call stack.
func (p *Process) InFunction(name string) bool {
	for _, f := range p.stack {
		if f.Name == name {
			return true
		}
	}
	return false
}

// InModule reports whether a function of the module is on the call stack.
func (p *Process) InModule(module string) bool {
	for _, f := range p.stack {
		if f.Module == module {
			return true
		}
	}
	return false
}

// InAnyFunction reports whether any of the named functions is on the stack.
func (p *Process) InAnyFunction(names []string) bool {
	for _, f := range p.stack {
		for _, n := range names {
			if f.Name == n {
				return true
			}
		}
	}
	return false
}

// CallEdges returns the caller→callee pairs first observed after the from
// earliest ones, sorted. The daemon forwards these to the front end for the
// Performance Consultant's call-graph search, advancing from by what it got.
func (p *Process) CallEdges(from int) [][2]string {
	if from >= len(p.edgeLog) {
		return nil
	}
	out := slices.Clone(p.edgeLog[from:])
	slices.SortFunc(out, func(a, b [2]string) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	})
	return out
}

// String describes the process's instrumentation state.
func (p *Process) String() string {
	return fmt.Sprintf("probe.Process(%s, %d probes)", p.name, p.active)
}
