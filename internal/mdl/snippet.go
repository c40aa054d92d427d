package mdl

import (
	"fmt"
	"strconv"

	"pperf/internal/metric"
	"pperf/internal/mpi"
	"pperf/internal/probe"
)

// env is what one instance's snippets are compiled against and gated by:
// its variables by name (consulted only while compiling — a compiled snippet
// holds the accumulators themselves), the bound $constraint components, and
// the flags and predicates that gate constrained blocks. A constraint's
// snippets get an env of their own holding just its flag counter.
type env struct {
	counters   map[string]*metric.Counter
	wallTimers map[string]*metric.WallTimer
	procTimers map[string]*metric.ProcessTimer
	// cargs are the bound $constraint components, compiled in as constants.
	cargs []string
	// flags are the MDL constraint flag counters that must all be nonzero
	// for constrained blocks to execute; preds are native constraint
	// predicates (procedure/module/sync category) with the same gating role.
	flags []*metric.Counter
	preds []func(ev *probe.Event) bool
	// handlers holds each probe spec's compiled handler: one handler serves
	// every function the spec is inserted on.
	handlers map[*ProbeSpec]probe.Handler
	// commNames and tagNames intern the resource names the name builtins
	// yield, so a constraint check compares against a string built on its
	// key's first sight, not on every execution.
	commNames, tagNames map[int]string
}

// satisfied reports whether all constraints hold for a constrained block at
// this event.
func (e *env) satisfied(ev *probe.Event) bool {
	for _, p := range e.preds {
		if !p(ev) {
			return false
		}
	}
	for _, f := range e.flags {
		if f.Value() == 0 {
			return false
		}
	}
	return true
}

// handler returns the spec's probe handler, compiling it on first use.
func (e *env) handler(ps *ProbeSpec) probe.Handler {
	h, ok := e.handlers[ps]
	if !ok {
		if e.handlers == nil {
			e.handlers = map[*ProbeSpec]probe.Handler{}
		}
		h = e.compile(ps)
		e.handlers[ps] = h
	}
	return h
}

// op is one compiled statement.
type op func(ev *probe.Event)

// failf aborts the compilation of a broken snippet (see abort). Compile
// checks every snippet and reports that as an error, so at instantiation it
// can only mean a bug.
func failf(format string, a ...any) { panic(abort{fmt.Errorf(format, a...)}) }

// compile turns a probe spec's statement block into a probe handler: a
// closure per statement and expression node over the env's own accumulators,
// every name resolved and every expression typed here — so executing the
// probe looks nothing up, boxes nothing, and cannot fail.
func (e *env) compile(ps *ProbeSpec) probe.Handler {
	ops := make([]op, len(ps.Stmts))
	for i, s := range ps.Stmts {
		ops[i] = s.compile(e)
	}
	constrained := ps.Constrained
	return func(ev *probe.Event) {
		if constrained && !e.satisfied(ev) {
			return
		}
		for _, o := range ops {
			o(ev)
		}
	}
}

func (e *env) counter(name string) *metric.Counter {
	c, ok := e.counters[name]
	if !ok {
		failf("unknown counter %q", name)
	}
	return c
}

func (st *IncStmt) compile(e *env) op {
	c := e.counter(st.Var)
	return func(*probe.Event) { c.Add(1) }
}

func (st *AddAssignStmt) compile(e *env) op {
	c, v := e.counter(st.Var), st.Val.compile(e).number()
	return func(ev *probe.Event) { c.Add(v(ev)) }
}

func (st *AssignStmt) compile(e *env) op {
	c, v := e.counter(st.Var), st.Val.compile(e).number()
	return func(ev *probe.Event) { c.Set(v(ev)) }
}

func (st *IfStmt) compile(e *env) op {
	cond, then := st.Cond.compile(e).truth(), st.Then.compile(e)
	return func(ev *probe.Event) {
		if cond(ev) {
			then(ev)
		}
	}
}

// A statement-position call is a timer operation or
// MPI_Type_size(datatype, &out).
func (st *CallStmt) compile(e *env) op {
	switch st.Fn {
	case "startWalltimer", "startWallTimer":
		t := timerArg(st, "walltimer", e.wallTimers)
		return func(ev *probe.Event) { t.Start(ev.Time) }
	case "stopWalltimer", "stopWallTimer":
		t := timerArg(st, "walltimer", e.wallTimers)
		return func(ev *probe.Event) { t.Stop(ev.Time) }
	case "startProcessTimer", "startProcesstimer":
		t := timerArg(st, "processtimer", e.procTimers)
		return func(ev *probe.Event) { t.Start(ev.CPUTime) }
	case "stopProcessTimer", "stopProcesstimer":
		t := timerArg(st, "processtimer", e.procTimers)
		return func(ev *probe.Event) { t.Stop(ev.CPUTime) }
	case "MPI_Type_size":
		if len(st.Args) != 1 || st.Out == "" {
			failf("MPI_Type_size needs (datatype, &out)")
		}
		out, dt := e.counter(st.Out), st.Args[0].compile(e).handle()
		return func(ev *probe.Event) { out.Set(typeSize(dt(ev))) }
	}
	failf("unknown call %q", st.Fn)
	return nil
}

// timerArg resolves the single timer-name argument of a timer call.
func timerArg[T any](st *CallStmt, kind string, timers map[string]*T) *T {
	if len(st.Args) != 1 {
		failf("%s needs one timer argument", st.Fn)
	}
	v, ok := st.Args[0].(*VarExpr)
	if !ok {
		failf("%s argument must be a timer name", st.Fn)
	}
	t, ok := timers[v.Name]
	if !ok {
		failf("unknown %s %q", kind, v.Name)
	}
	return t
}

// value is a compiled expression, typed when it is compiled: a number
// (literals, counters, arithmetic), a truth value (comparisons; 1 or 0 as a
// number), a string (literals, $constraint[n], the name builtins) or an
// object (a raw $arg[n]: whatever the traced call passed, inspected at run
// time). Exactly one field is set.
type value struct {
	num  func(*probe.Event) float64
	test func(*probe.Event) bool
	str  func(*probe.Event) string
	obj  func(*probe.Event) any
}

func constant(s string) value { return value{str: func(*probe.Event) string { return s }} }

// number coerces to MDL arithmetic: a string counts as 0, an object as
// whatever number it holds.
func (v value) number() func(*probe.Event) float64 {
	switch {
	case v.num != nil:
		return v.num
	case v.test != nil:
		return func(ev *probe.Event) float64 { return asNum(v.test(ev)) }
	case v.obj != nil:
		return func(ev *probe.Event) float64 { return asNum(v.obj(ev)) }
	}
	return func(*probe.Event) float64 { return 0 }
}

// truth is the value as an if condition: nonzero, non-empty, non-nil.
func (v value) truth() func(*probe.Event) bool {
	switch {
	case v.test != nil:
		return v.test
	case v.num != nil:
		return func(ev *probe.Event) bool { return v.num(ev) != 0 }
	case v.str != nil:
		return func(ev *probe.Event) bool { return v.str(ev) != "" }
	}
	return func(ev *probe.Event) bool { return truthy(v.obj(ev)) }
}

// handle is the value as a builtin's handle argument: only a raw $arg[n]
// can hold a communicator, window or datatype; anything computed holds none.
func (v value) handle() func(*probe.Event) any {
	if v.obj != nil {
		return v.obj
	}
	return func(*probe.Event) any { return nil }
}

func (x *NumExpr) compile(*env) value {
	v := x.V
	return value{num: func(*probe.Event) float64 { return v }}
}

func (x *StrExpr) compile(*env) value { return constant(x.V) }

func (x *VarExpr) compile(e *env) value {
	c := e.counter(x.Name)
	return value{num: func(*probe.Event) float64 { return c.Value() }}
}

func (x *ArgExpr) compile(*env) value {
	i := x.Index
	return value{obj: func(ev *probe.Event) any { return ev.Arg(i) }}
}

func (x *ConstraintExpr) compile(e *env) value {
	if x.Index < 0 || x.Index >= len(e.cargs) {
		return constant("")
	}
	return constant(e.cargs[x.Index])
}

// A value-position call is a builtin; each takes one argument.
func (x *CallExpr) compile(e *env) value {
	if len(x.Args) != 1 {
		failf("%s needs one argument, has %d", x.Fn, len(x.Args))
	}
	arg := x.Args[0].compile(e)
	switch x.Fn {
	case "DYNINSTWindow_FindUniqueId", "DYNINSTTWindow_FindUniqueId":
		// The runtime lookup from a window handle to the tool's N-M id.
		o := arg.handle()
		return value{str: func(ev *probe.Event) string {
			if w, ok := o(ev).(*mpi.Win); ok && w != nil {
				return w.UniqueID()
			}
			return ""
		}}
	case "DYNINSTComm_FindId":
		o := arg.handle()
		return value{str: func(ev *probe.Event) string {
			if cm, ok := o(ev).(*mpi.Comm); ok && cm != nil {
				return interned(&e.commNames, "comm-", cm.ID())
			}
			return ""
		}}
	case "DYNINSTTagName":
		n := arg.number()
		return value{str: func(ev *probe.Event) string { return interned(&e.tagNames, "tag-", int(n(ev))) }}
	case "MPI_Type_size":
		o := arg.handle()
		return value{num: func(ev *probe.Event) float64 { return typeSize(o(ev)) }}
	}
	failf("unknown builtin %q", x.Fn)
	return value{}
}

// interned returns prefix+k from the table, building it on k's first sight.
func interned(table *map[int]string, prefix string, k int) string {
	s, ok := (*table)[k]
	if !ok {
		if *table == nil {
			*table = map[int]string{}
		}
		s = prefix + strconv.Itoa(k)
		(*table)[k] = s
	}
	return s
}

func (x *BinExpr) compile(e *env) value {
	l, r := x.L.compile(e), x.R.compile(e)
	switch x.Op {
	case "==":
		return value{test: equal(l, r)}
	case "!=":
		eq := equal(l, r)
		return value{test: func(ev *probe.Event) bool { return !eq(ev) }}
	}
	a, b := l.number(), r.number()
	switch x.Op {
	case "+":
		return value{num: func(ev *probe.Event) float64 { return a(ev) + b(ev) }}
	case "*":
		return value{num: func(ev *probe.Event) float64 { return a(ev) * b(ev) }}
	case ">":
		return value{test: func(ev *probe.Event) bool { return a(ev) > b(ev) }}
	case "<":
		return value{test: func(ev *probe.Event) bool { return a(ev) < b(ev) }}
	case ">=":
		return value{test: func(ev *probe.Event) bool { return a(ev) >= b(ev) }}
	case "<=":
		return value{test: func(ev *probe.Event) bool { return a(ev) <= b(ev) }}
	}
	failf("unknown operator %q", x.Op)
	return value{}
}

// equal compiles ==: strings compare with strings and numbers with numbers,
// a string never equals a number, and an object compares as whichever of
// the two it turns out to hold. The typed side of an object comparison is
// boxed on the stack (equalVals keeps nothing), so no case allocates.
func equal(l, r value) func(*probe.Event) bool {
	if r.obj != nil {
		l, r = r, l // equality is symmetric
	}
	switch {
	case l.obj != nil && r.obj != nil:
		return func(ev *probe.Event) bool { return equalVals(l.obj(ev), r.obj(ev)) }
	case l.obj != nil && r.str != nil:
		return func(ev *probe.Event) bool { return equalVals(l.obj(ev), r.str(ev)) }
	case l.obj != nil:
		n := r.number()
		return func(ev *probe.Event) bool { return equalVals(l.obj(ev), n(ev)) }
	case l.str != nil && r.str != nil:
		return func(ev *probe.Event) bool { return l.str(ev) == r.str(ev) }
	case l.str != nil || r.str != nil:
		return func(*probe.Event) bool { return false }
	}
	a, b := l.number(), r.number()
	return func(ev *probe.Event) bool { return a(ev) == b(ev) }
}

func equalVals(l, r any) bool {
	if ls, ok := l.(string); ok {
		rs, ok2 := r.(string)
		return ok2 && ls == rs
	}
	if _, ok := r.(string); ok {
		return false
	}
	return asNum(l) == asNum(r)
}

func truthy(v any) bool {
	switch t := v.(type) {
	case bool:
		return t
	case float64:
		return t != 0
	case string:
		return t != ""
	case nil:
		return false
	default:
		return true
	}
}

// asNum coerces probe argument values to float64 for MDL arithmetic.
func asNum(v any) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case int:
		return float64(t)
	case int64:
		return float64(t)
	case bool:
		if t {
			return 1
		}
		return 0
	case mpi.Datatype:
		return float64(int(t))
	default:
		return 0
	}
}

// typeSize is the MPI_Type_size builtin over a probe datatype argument.
func typeSize(v any) float64 {
	if dt, ok := v.(mpi.Datatype); ok {
		return float64(dt.Size())
	}
	return 0
}
