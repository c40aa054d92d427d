package mdl

import (
	"fmt"
	"strconv"

	"pperf/internal/metric"
	"pperf/internal/mpi"
	"pperf/internal/probe"
)

// scope is what one declaration's snippets compile against: its variables
// and where an instance's frame keeps each. A metric's scope holds its
// auxiliary counters and the variable its id names — a counter too, or the
// one timer of its kind; a constraint's, just the flag counter it names.
type scope struct {
	counters             map[string]int // name → slot in frame.counters
	wallTimer, procTimer string         // the timer's name, "" without one
}

// frame is one instance's run-time state, the first argument of all compiled
// code: its variables by slot, the bound $constraint components, and the
// flags and native constraints that gate constrained blocks. An instantiated
// constraint has a frame of its own holding just its flag counter.
type frame struct {
	counters  []metric.Counter
	wallTimer metric.WallTimer
	procTimer metric.ProcessTimer
	// cargs are the bound $constraint components.
	cargs []string
	// flags are the MDL constraint flag counters that must all be nonzero
	// for constrained blocks to execute. The native constraints gate them
	// too: inFunc, inModule and any of inSync ("" or nil when unset) must be
	// on the call stack — the focus's procedure, its module, and its
	// SyncObject category's functions.
	flags            []*metric.Counter
	inFunc, inModule string
	inSync           []string
	// commNames and tagNames intern the resource names the name builtins
	// yield, so a constraint check compares against a string built on its
	// key's first sight, not on every execution.
	commNames, tagNames map[int]string
}

// satisfied reports whether all constraints hold for a constrained block at
// this event.
func (fr *frame) satisfied(ev *probe.Event) bool {
	switch {
	case fr.inFunc != "" && !ev.Proc.InFunction(fr.inFunc),
		fr.inModule != "" && !ev.Proc.InModule(fr.inModule),
		fr.inSync != nil && !ev.Proc.InAnyFunction(fr.inSync):
		return false
	}
	for _, f := range fr.flags {
		if f.Value() == 0 {
			return false
		}
	}
	return true
}

// op is one compiled statement.
type op func(fr *frame, ev *probe.Event)

// failf aborts the compilation of a broken snippet (see abort); Compile
// reports it as an error naming the spec's line.
func failf(format string, a ...any) { panic(abort{fmt.Errorf(format, a...)}) }

// compile turns the spec's statement block into its code: a closure per
// statement and expression node, every name resolved to a frame slot and
// every expression typed here — so executing the probe looks nothing up,
// boxes nothing, and cannot fail. The spec keeps one probe.Code, whose
// argument is the instance's *frame: it serves every frame and every
// function the spec is inserted on.
func (ps *ProbeSpec) compile(sc *scope) {
	ops := make([]op, len(ps.Stmts))
	for i, s := range ps.Stmts {
		ops[i] = s.compile(sc)
	}
	constrained := ps.Constrained
	ps.code = func(arg any, ev *probe.Event) {
		fr := arg.(*frame)
		if constrained && !fr.satisfied(ev) {
			return
		}
		for _, o := range ops {
			o(fr, ev)
		}
	}
}

func (sc *scope) counter(name string) int {
	i, ok := sc.counters[name]
	if !ok {
		failf("unknown counter %q", name)
	}
	return i
}

func (st *IncStmt) compile(sc *scope) op {
	c := sc.counter(st.Var)
	return func(fr *frame, _ *probe.Event) { fr.counters[c].Add(1) }
}

func (st *AddAssignStmt) compile(sc *scope) op {
	c, v := sc.counter(st.Var), st.Val.compile(sc).number()
	return func(fr *frame, ev *probe.Event) { fr.counters[c].Add(v(fr, ev)) }
}

func (st *AssignStmt) compile(sc *scope) op {
	c, v := sc.counter(st.Var), st.Val.compile(sc).number()
	return func(fr *frame, ev *probe.Event) { fr.counters[c].Set(v(fr, ev)) }
}

func (st *IfStmt) compile(sc *scope) op {
	cond, then := st.Cond.compile(sc).truth(), st.Then.compile(sc)
	return func(fr *frame, ev *probe.Event) {
		if cond(fr, ev) {
			then(fr, ev)
		}
	}
}

// A statement-position call is a timer operation or
// MPI_Type_size(datatype, &out).
func (st *CallStmt) compile(sc *scope) op {
	switch st.Fn {
	case "startWalltimer", "startWallTimer":
		st.timerArg("walltimer", sc.wallTimer)
		return func(fr *frame, ev *probe.Event) { fr.wallTimer.Start(ev.Time) }
	case "stopWalltimer", "stopWallTimer":
		st.timerArg("walltimer", sc.wallTimer)
		return func(fr *frame, ev *probe.Event) { fr.wallTimer.Stop(ev.Time) }
	case "startProcessTimer", "startProcesstimer":
		st.timerArg("processtimer", sc.procTimer)
		return func(fr *frame, ev *probe.Event) { fr.procTimer.Start(ev.CPUTime) }
	case "stopProcessTimer", "stopProcesstimer":
		st.timerArg("processtimer", sc.procTimer)
		return func(fr *frame, ev *probe.Event) { fr.procTimer.Stop(ev.CPUTime) }
	case "MPI_Type_size":
		if len(st.Args) != 1 || st.Out == "" {
			failf("MPI_Type_size needs (datatype, &out)")
		}
		out, dt := sc.counter(st.Out), st.Args[0].compile(sc).handle()
		return func(fr *frame, ev *probe.Event) { fr.counters[out].Set(typeSize(dt(fr, ev))) }
	}
	failf("unknown call %q", st.Fn)
	return nil
}

// timerArg checks that the timer call's single argument names the scope's
// timer of that kind.
func (st *CallStmt) timerArg(kind, declared string) {
	if len(st.Args) != 1 {
		failf("%s needs one timer argument", st.Fn)
	}
	v, ok := st.Args[0].(*VarExpr)
	if !ok {
		failf("%s argument must be a timer name", st.Fn)
	}
	if v.Name != declared {
		failf("unknown %s %q", kind, v.Name)
	}
}

// value is a compiled expression, typed when it is compiled: a number
// (literals, counters, arithmetic), a truth value (comparisons; 1 or 0 as a
// number), a string (literals, $constraint[n], the name builtins) or an
// object (a raw $arg[n]: whatever the traced call passed, inspected at run
// time). Exactly one field is set.
type value struct {
	num  func(*frame, *probe.Event) float64
	test func(*frame, *probe.Event) bool
	str  func(*frame, *probe.Event) string
	obj  func(*frame, *probe.Event) any
}

// number coerces to MDL arithmetic: a string counts as 0, an object as
// whatever number it holds.
func (v value) number() func(*frame, *probe.Event) float64 {
	switch {
	case v.num != nil:
		return v.num
	case v.test != nil:
		return func(fr *frame, ev *probe.Event) float64 { return asNum(v.test(fr, ev)) }
	case v.obj != nil:
		return func(fr *frame, ev *probe.Event) float64 { return asNum(v.obj(fr, ev)) }
	}
	return func(*frame, *probe.Event) float64 { return 0 }
}

// truth is the value as an if condition: nonzero, non-empty, non-nil.
func (v value) truth() func(*frame, *probe.Event) bool {
	switch {
	case v.test != nil:
		return v.test
	case v.num != nil:
		return func(fr *frame, ev *probe.Event) bool { return v.num(fr, ev) != 0 }
	case v.str != nil:
		return func(fr *frame, ev *probe.Event) bool { return v.str(fr, ev) != "" }
	}
	return func(fr *frame, ev *probe.Event) bool { return truthy(v.obj(fr, ev)) }
}

// handle is the value as a builtin's handle argument: only a raw $arg[n]
// can hold a communicator, window or datatype; anything computed holds none.
func (v value) handle() func(*frame, *probe.Event) any {
	if v.obj != nil {
		return v.obj
	}
	return func(*frame, *probe.Event) any { return nil }
}

func (x *NumExpr) compile(*scope) value {
	v := x.V
	return value{num: func(*frame, *probe.Event) float64 { return v }}
}

func (x *StrExpr) compile(*scope) value {
	s := x.V
	return value{str: func(*frame, *probe.Event) string { return s }}
}

func (x *VarExpr) compile(sc *scope) value {
	c := sc.counter(x.Name)
	return value{num: func(fr *frame, _ *probe.Event) float64 { return fr.counters[c].Value() }}
}

func (x *ArgExpr) compile(*scope) value {
	i := x.Index
	return value{obj: func(_ *frame, ev *probe.Event) any { return ev.Arg(i) }}
}

// $constraint[n] is the n-th component the instance's focus bound, "" when it
// bound fewer.
func (x *ConstraintExpr) compile(*scope) value {
	i := x.Index
	return value{str: func(fr *frame, _ *probe.Event) string {
		if i < 0 || i >= len(fr.cargs) {
			return ""
		}
		return fr.cargs[i]
	}}
}

// A value-position call is a builtin; each takes one argument.
func (x *CallExpr) compile(sc *scope) value {
	if len(x.Args) != 1 {
		failf("%s needs one argument, has %d", x.Fn, len(x.Args))
	}
	arg := x.Args[0].compile(sc)
	switch x.Fn {
	case "DYNINSTWindow_FindUniqueId", "DYNINSTTWindow_FindUniqueId":
		// The runtime lookup from a window handle to the tool's N-M id.
		o := arg.handle()
		return value{str: func(fr *frame, ev *probe.Event) string {
			if w, ok := o(fr, ev).(*mpi.Win); ok && w != nil {
				return w.UniqueID()
			}
			return ""
		}}
	case "DYNINSTComm_FindId":
		o := arg.handle()
		return value{str: func(fr *frame, ev *probe.Event) string {
			if cm, ok := o(fr, ev).(*mpi.Comm); ok && cm != nil {
				return interned(&fr.commNames, "comm-", cm.ID())
			}
			return ""
		}}
	case "DYNINSTTagName":
		n := arg.number()
		return value{str: func(fr *frame, ev *probe.Event) string { return interned(&fr.tagNames, "tag-", int(n(fr, ev))) }}
	case "MPI_Type_size":
		o := arg.handle()
		return value{num: func(fr *frame, ev *probe.Event) float64 { return typeSize(o(fr, ev)) }}
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

func (x *BinExpr) compile(sc *scope) value {
	l, r := x.L.compile(sc), x.R.compile(sc)
	switch x.Op {
	case "==":
		return value{test: equal(l, r)}
	case "!=":
		eq := equal(l, r)
		return value{test: func(fr *frame, ev *probe.Event) bool { return !eq(fr, ev) }}
	}
	a, b := l.number(), r.number()
	switch x.Op {
	case "+":
		return value{num: func(fr *frame, ev *probe.Event) float64 { return a(fr, ev) + b(fr, ev) }}
	case "*":
		return value{num: func(fr *frame, ev *probe.Event) float64 { return a(fr, ev) * b(fr, ev) }}
	case ">":
		return value{test: func(fr *frame, ev *probe.Event) bool { return a(fr, ev) > b(fr, ev) }}
	case "<":
		return value{test: func(fr *frame, ev *probe.Event) bool { return a(fr, ev) < b(fr, ev) }}
	case ">=":
		return value{test: func(fr *frame, ev *probe.Event) bool { return a(fr, ev) >= b(fr, ev) }}
	case "<=":
		return value{test: func(fr *frame, ev *probe.Event) bool { return a(fr, ev) <= b(fr, ev) }}
	}
	failf("unknown operator %q", x.Op)
	return value{}
}

// equal compiles ==: strings compare with strings and numbers with numbers,
// a string never equals a number, and an object compares as whichever of
// the two it turns out to hold. The typed side of an object comparison is
// boxed on the stack (equalVals keeps nothing), so no case allocates.
func equal(l, r value) func(*frame, *probe.Event) bool {
	if r.obj != nil {
		l, r = r, l // equality is symmetric
	}
	switch {
	case l.obj != nil && r.obj != nil:
		return func(fr *frame, ev *probe.Event) bool { return equalVals(l.obj(fr, ev), r.obj(fr, ev)) }
	case l.obj != nil && r.str != nil:
		return func(fr *frame, ev *probe.Event) bool { return equalVals(l.obj(fr, ev), r.str(fr, ev)) }
	case l.obj != nil:
		n := r.number()
		return func(fr *frame, ev *probe.Event) bool { return equalVals(l.obj(fr, ev), n(fr, ev)) }
	case l.str != nil && r.str != nil:
		return func(fr *frame, ev *probe.Event) bool { return l.str(fr, ev) == r.str(fr, ev) }
	case l.str != nil || r.str != nil:
		return func(*frame, *probe.Event) bool { return false }
	}
	a, b := l.number(), r.number()
	return func(fr *frame, ev *probe.Event) bool { return a(fr, ev) == b(fr, ev) }
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
