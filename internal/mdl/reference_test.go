package mdl

import (
	"fmt"
	"strings"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/metric"
	"pperf/internal/mpi"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// The per-instance compiler the compile-once design replaced, kept as the
// reference of TestInstancesMatchPerInstanceCompiler: every Instantiate
// builds an env — symbol table, variable store and constraint gate in one —
// and compiles the metric's snippets against it into closures over that
// instance's own accumulators, lazily, one handler per probe spec.

type refEnv struct {
	counters            map[string]*metric.Counter
	wallTimers          map[string]*metric.WallTimer
	procTimers          map[string]*metric.ProcessTimer
	cargs               []string
	flags               []*metric.Counter
	preds               []func(ev *probe.Event) bool
	handlers            map[*ProbeSpec]probe.Handler
	commNames, tagNames map[int]string
}

type refOp func(ev *probe.Event)

type refValue struct {
	num  func(*probe.Event) float64
	test func(*probe.Event) bool
	str  func(*probe.Event) string
	obj  func(*probe.Event) any
}

func (e *refEnv) satisfied(ev *probe.Event) bool {
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

func (e *refEnv) handler(ps *ProbeSpec) probe.Handler {
	h, ok := e.handlers[ps]
	if !ok {
		if e.handlers == nil {
			e.handlers = map[*ProbeSpec]probe.Handler{}
		}
		ops := make([]refOp, len(ps.Stmts))
		for i, s := range ps.Stmts {
			ops[i] = e.stmt(s)
		}
		h = func(ev *probe.Event) {
			if ps.Constrained && !e.satisfied(ev) {
				return
			}
			for _, o := range ops {
				o(ev)
			}
		}
		e.handlers[ps] = h
	}
	return h
}

func (e *refEnv) counter(name string) *metric.Counter {
	c, ok := e.counters[name]
	if !ok {
		panic(fmt.Sprintf("unknown counter %q", name))
	}
	return c
}

func refTimer[T any](st *CallStmt, timers map[string]*T) *T {
	t, ok := timers[st.Args[0].(*VarExpr).Name]
	if !ok {
		panic("unknown timer in " + st.Fn)
	}
	return t
}

func (e *refEnv) stmt(s Stmt) refOp {
	switch st := s.(type) {
	case *IncStmt:
		c := e.counter(st.Var)
		return func(*probe.Event) { c.Add(1) }
	case *AddAssignStmt:
		c, v := e.counter(st.Var), e.expr(st.Val).number()
		return func(ev *probe.Event) { c.Add(v(ev)) }
	case *AssignStmt:
		c, v := e.counter(st.Var), e.expr(st.Val).number()
		return func(ev *probe.Event) { c.Set(v(ev)) }
	case *IfStmt:
		cond, then := e.expr(st.Cond).truth(), e.stmt(st.Then)
		return func(ev *probe.Event) {
			if cond(ev) {
				then(ev)
			}
		}
	case *CallStmt:
		switch st.Fn {
		case "startWalltimer", "startWallTimer":
			t := refTimer(st, e.wallTimers)
			return func(ev *probe.Event) { t.Start(ev.Time) }
		case "stopWalltimer", "stopWallTimer":
			t := refTimer(st, e.wallTimers)
			return func(ev *probe.Event) { t.Stop(ev.Time) }
		case "startProcessTimer", "startProcesstimer":
			t := refTimer(st, e.procTimers)
			return func(ev *probe.Event) { t.Start(ev.CPUTime) }
		case "stopProcessTimer", "stopProcesstimer":
			t := refTimer(st, e.procTimers)
			return func(ev *probe.Event) { t.Stop(ev.CPUTime) }
		case "MPI_Type_size":
			out, dt := e.counter(st.Out), e.expr(st.Args[0]).handle()
			return func(ev *probe.Event) { out.Set(typeSize(dt(ev))) }
		}
	}
	panic(fmt.Sprintf("reference compiler: statement %#v", s))
}

func refConstant(s string) refValue { return refValue{str: func(*probe.Event) string { return s }} }

func (v refValue) number() func(*probe.Event) float64 {
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

func (v refValue) truth() func(*probe.Event) bool {
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

func (v refValue) handle() func(*probe.Event) any {
	if v.obj != nil {
		return v.obj
	}
	return func(*probe.Event) any { return nil }
}

func (e *refEnv) expr(x Expr) refValue {
	switch x := x.(type) {
	case *NumExpr:
		return refValue{num: func(*probe.Event) float64 { return x.V }}
	case *StrExpr:
		return refConstant(x.V)
	case *VarExpr:
		c := e.counter(x.Name)
		return refValue{num: func(*probe.Event) float64 { return c.Value() }}
	case *ArgExpr:
		return refValue{obj: func(ev *probe.Event) any { return ev.Arg(x.Index) }}
	case *ConstraintExpr:
		if x.Index < 0 || x.Index >= len(e.cargs) {
			return refConstant("")
		}
		return refConstant(e.cargs[x.Index])
	case *CallExpr:
		arg := e.expr(x.Args[0])
		switch x.Fn {
		case "DYNINSTWindow_FindUniqueId", "DYNINSTTWindow_FindUniqueId":
			o := arg.handle()
			return refValue{str: func(ev *probe.Event) string {
				if w, ok := o(ev).(*mpi.Win); ok && w != nil {
					return w.UniqueID()
				}
				return ""
			}}
		case "DYNINSTComm_FindId":
			o := arg.handle()
			return refValue{str: func(ev *probe.Event) string {
				if cm, ok := o(ev).(*mpi.Comm); ok && cm != nil {
					return interned(&e.commNames, "comm-", cm.ID())
				}
				return ""
			}}
		case "DYNINSTTagName":
			n := arg.number()
			return refValue{str: func(ev *probe.Event) string { return interned(&e.tagNames, "tag-", int(n(ev))) }}
		case "MPI_Type_size":
			o := arg.handle()
			return refValue{num: func(ev *probe.Event) float64 { return typeSize(o(ev)) }}
		}
	case *BinExpr:
		l, r := e.expr(x.L), e.expr(x.R)
		switch x.Op {
		case "==":
			return refValue{test: refEqual(l, r)}
		case "!=":
			eq := refEqual(l, r)
			return refValue{test: func(ev *probe.Event) bool { return !eq(ev) }}
		}
		a, b := l.number(), r.number()
		switch x.Op {
		case "+":
			return refValue{num: func(ev *probe.Event) float64 { return a(ev) + b(ev) }}
		case "*":
			return refValue{num: func(ev *probe.Event) float64 { return a(ev) * b(ev) }}
		case ">":
			return refValue{test: func(ev *probe.Event) bool { return a(ev) > b(ev) }}
		case "<":
			return refValue{test: func(ev *probe.Event) bool { return a(ev) < b(ev) }}
		case ">=":
			return refValue{test: func(ev *probe.Event) bool { return a(ev) >= b(ev) }}
		case "<=":
			return refValue{test: func(ev *probe.Event) bool { return a(ev) <= b(ev) }}
		}
	}
	panic(fmt.Sprintf("reference compiler: expression %#v", x))
}

func refEqual(l, r refValue) func(*probe.Event) bool {
	if r.obj != nil {
		l, r = r, l
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

// refInstance is the old Instance.
type refInstance struct {
	Acc         metric.Accumulator
	target      Target
	probeIDs    []probe.ID
	moduleWatch string
	extendSpecs []*ProbeSpec
	env         *refEnv
}

func (in *refInstance) Remove() {
	for _, id := range in.probeIDs {
		in.target.Probes().Remove(id)
	}
	in.probeIDs = nil
}

func (in *refInstance) ModuleWatch() string { return in.moduleWatch }

func (in *refInstance) ExtendFunction(fname string) {
	for _, ps := range in.extendSpecs {
		in.probeIDs = append(in.probeIDs, in.insertSpec(fname, ps))
	}
}

func (in *refInstance) insertSpec(fname string, ps *ProbeSpec) probe.ID {
	return in.target.Probes().Insert(fname, ps.Where, ps.Order, in.env.handler(ps))
}

func (cm *CompiledMetric) refNewEnv(t Target) (*refEnv, metric.Accumulator) {
	e := &refEnv{
		counters:   map[string]*metric.Counter{},
		wallTimers: map[string]*metric.WallTimer{},
		procTimers: map[string]*metric.ProcessTimer{},
	}
	for _, cn := range cm.decl.Counters {
		e.counters[cn] = &metric.Counter{}
	}
	switch id := cm.decl.ID; strings.ToLower(cm.decl.BaseKind) {
	case "counter":
		e.counters[id] = &metric.Counter{}
		return e, e.counters[id]
	case "walltimer":
		e.wallTimers[id] = &metric.WallTimer{}
		return e, e.wallTimers[id]
	case "processtimer":
		e.procTimers[id] = &metric.ProcessTimer{}
		return e, e.procTimers[id]
	case "cpuclock":
		return e, funcAcc(func() float64 { return t.CPUNow().Seconds() })
	case "wallclock":
		return e, funcAcc(func() float64 { return t.WallNow().Seconds() })
	case "sysclock":
		return e, funcAcc(func() float64 { return t.SystemNow().Seconds() })
	}
	return e, nil
}

// refInstantiate is the old CompiledMetric.Instantiate.
func (cm *CompiledMetric) refInstantiate(t Target, f resource.Focus) (*refInstance, error) {
	e, acc := cm.refNewEnv(t)
	in := &refInstance{target: t, env: e, Acc: acc}
	if !cm.usesFocusCode() {
		if fn := f.CodeFunction(); fn != "" {
			if !cm.hasConstraint("procedureConstraint") {
				return nil, fmt.Errorf("mdl: metric %s cannot be constrained to a procedure", cm.Name())
			}
			e.preds = append(e.preds, func(ev *probe.Event) bool { return ev.Proc.InFunction(fn) })
		} else if mod := f.CodeModule(); mod != "" {
			if !cm.hasConstraint("moduleConstraint") {
				return nil, fmt.Errorf("mdl: metric %s cannot be constrained to a module", cm.Name())
			}
			e.preds = append(e.preds, func(ev *probe.Event) bool { return ev.Proc.InModule(mod) })
		}
	}
	if err := cm.refApplySyncConstraints(e, in, f); err != nil {
		return nil, err
	}
	for _, fe := range cm.decl.Foreachs {
		fns, watch := cm.resolveSet(t, fe.SetName, f)
		if watch != "" {
			in.moduleWatch = watch
			in.extendSpecs = append(in.extendSpecs, fe.Probes...)
		}
		if fe.SetName == "focusCode" && len(fns) == 0 && watch == "" {
			switch in.Acc.(type) {
			case *metric.ProcessTimer:
				in.Acc = funcAcc(func() float64 { return t.CPUNow().Seconds() })
			case *metric.WallTimer:
				in.Acc = funcAcc(func() float64 { return t.WallNow().Seconds() })
			}
			continue
		}
		for _, fname := range fns {
			for _, ps := range fe.Probes {
				in.probeIDs = append(in.probeIDs, in.insertSpec(fname, ps))
			}
		}
	}
	return in, nil
}

func (cm *CompiledMetric) refApplySyncConstraints(e *refEnv, in *refInstance, f resource.Focus) error {
	parts := f.SyncParts()
	if len(parts) == 0 {
		return nil
	}
	category, rest := parts[0], parts[1:]
	catFns, ok := syncCategoryFunctions[category]
	if !ok {
		return fmt.Errorf("mdl: unknown SyncObject category %q", category)
	}
	e.preds = append(e.preds, func(ev *probe.Event) bool { return ev.Proc.InAnyFunction(catFns) })
	if len(rest) == 0 {
		return nil
	}
	basePath := "/SyncObject/" + category
	bound := 0
	for _, cn := range cm.decl.Constraints {
		cd := cm.lib.constraints[cn]
		if cd == nil || cd.Path != basePath {
			continue
		}
		var args []string
		if cd.Deep {
			if len(rest) < 2 {
				continue
			}
			args = rest[1:]
		} else {
			args = rest[:1]
		}
		cenv := &refEnv{counters: map[string]*metric.Counter{cd.Name: {}}, cargs: args}
		e.flags = append(e.flags, cenv.counters[cd.Name])
		for _, fe := range cd.Foreachs {
			for _, fname := range cm.lib.sets[fe.SetName] {
				for _, ps := range fe.Probes {
					in.probeIDs = append(in.probeIDs, in.target.Probes().Insert(fname, ps.Where, ps.Order, cenv.handler(ps)))
				}
			}
		}
		bound++
	}
	if bound == 0 {
		return fmt.Errorf("mdl: metric %s cannot be constrained to %s", cm.Name(), f.SyncPath)
	}
	return nil
}

// --- the differential test --------------------------------------------------

// enabled is what the script needs of an instance, old or new.
type enabled interface {
	ModuleWatch() string
	ExtendFunction(fname string)
	Remove()
}

// script is the traced program both compilers' instances are driven by: two
// ranks; messages on two communicators and two tags, from the top level, from
// outer (app.c), from inner nested inside it and from elsewhere (other.c);
// two RMA windows with puts, gets and accumulates under fence, lock and
// start/post epochs; a barrier, file I/O, a spawn and compute; and late
// (app.c), which first runs long after the metrics were enabled — the
// function a module focus on app.c has to pick up by extension.
func script(t *testing.T) mpi.Program {
	return func(r *mpi.Rank, _ []string) {
		check := func(err error) {
			if err != nil {
				t.Error(err)
			}
		}
		c, me, peer := r.World(), r.Rank(), 1-r.Rank()
		exchange := func(c *mpi.Comm, tag, count int) {
			if me == 0 {
				check(c.Send(r, nil, count, mpi.Int, peer, tag))
				_, err := c.Recv(r, nil, count, mpi.Double, peer, tag)
				check(err)
			} else {
				r.Compute(3 * sim.Millisecond) // rank 0's receive waits
				_, err := c.Recv(r, nil, count, mpi.Int, peer, tag)
				check(err)
				check(c.Send(r, nil, count, mpi.Double, peer, tag))
			}
		}
		dup, err := c.Dup(r)
		check(err)
		exchange(c, 7, 4)
		r.Call("app.c", "outer", func() {
			r.Compute(5 * sim.Millisecond)
			exchange(c, 7, 8)
			exchange(dup, 7, 2)
			r.Call("app.c", "inner", func() {
				exchange(c, 8, 16)
				r.Call("app.c", "outer", func() { exchange(c, 7, 1) }) // recursion: the timers nest
			})
		})
		r.Call("other.c", "elsewhere", func() {
			r.Compute(2 * sim.Millisecond)
			exchange(c, 7, 32)
			exchange(dup, 8, 3)
			rq, err := c.Isend(r, nil, 5, mpi.Byte, peer, 9)
			check(err)
			rs, err := c.Irecv(r, nil, 5, mpi.Byte, peer, 9)
			check(err)
			r.Waitall([]*mpi.Request{rq, rs})
			_, err = c.Sendrecv(r, nil, 6, mpi.Int, peer, 7, nil, 6, mpi.Int, peer, 7)
			check(err)
		})
		w1, err := c.WinCreate(r, 1024, 1, nil)
		check(err)
		w2, err := c.WinCreate(r, 1024, 1, nil)
		check(err)
		r.Call("app.c", "outer", func() {
			for _, w := range []*mpi.Win{w1, w2, w1} {
				check(w.Fence(0))
				if me == 0 {
					check(w.Put(nil, 4, mpi.Double, peer, 0, 4, mpi.Double))
					check(w.Get(nil, 2, mpi.Int, peer, 0, 2, mpi.Int))
				} else {
					r.Compute(sim.Millisecond)
					check(w.Accumulate(nil, 3, mpi.Double, peer, 0, 3, mpi.Double, mpi.OpSum))
				}
				check(w.Fence(0))
			}
		})
		if me == 0 {
			check(w1.Lock(0, peer, 0))
			check(w1.Put(nil, 1, mpi.Byte, peer, 0, 1, mpi.Byte))
			check(w1.Unlock(peer))
			check(w2.Start([]int{peer}, 0))
			check(w2.Put(nil, 7, mpi.Byte, peer, 0, 7, mpi.Byte))
			check(w2.Complete())
		} else {
			check(w2.Post([]int{peer}, 0))
			check(w2.WaitEpoch())
		}
		check(c.Barrier(r))
		fl, err := c.FileOpen(r, "out.dat", mpi.ModeCreate|mpi.ModeWROnly, nil)
		check(err)
		check(fl.WriteAt(r, int64(64*me), nil, 16, mpi.Int))
		check(fl.ReadAt(r, 0, nil, 8, mpi.Int))
		check(fl.Close(r))
		r.Call("app.c", "late", func() {
			r.Compute(4 * sim.Millisecond)
			exchange(c, 7, 2)
			r.Call("late.c", "later", func() { exchange(c, 8, 2) })
		})
		check(w1.Free())
		check(w2.Free())
		_, err = c.Spawn(r, "child", nil, 1, nil, 0)
		check(err)
		check(c.Barrier(r))
	}
}

// runScript runs the script with the pair enabled on both ranks from before
// MPI_Init, the way a daemon would have it — newly discovered functions
// extend module-watching instances, a sampler reads the accumulators every
// 2 ms, rank 1's instance is removed at 60 ms and rank 0's at exit — and
// returns everything observable: per rank the number of probes inserted, then
// one line per executed instrumentation point (function, point, handlers
// run), sample and removal in order, and the final execution counts.
func runScript(t *testing.T, instantiate func(Target, resource.Focus) (enabled, metric.Accumulator, error), f resource.Focus) (log []string, err error) {
	t.Helper()
	eng := sim.NewEngine(22)
	// The reference personality: the only one with both passive-target
	// synchronization and spawn.
	w := mpi.NewWorld(eng, cluster.DefaultSpec(2, 1), mpi.NewImpl(mpi.Reference))
	w.Register("main", script(t))
	w.Register("child", func(*mpi.Rank, []string) {})
	type live struct {
		r   *mpi.Rank
		in  enabled
		acc metric.Accumulator
	}
	var insts []*live
	w.AddHooks(&mpi.Hooks{
		ProcessStarted: func(r *mpi.Rank) {
			if r.ParentComm() != nil {
				return // the spawned child is not instrumented
			}
			li := &live{r: r}
			if li.in, li.acc, err = instantiate(rankTarget{r}, f); err != nil {
				return
			}
			insts = append(insts, li)
			log = append(log, fmt.Sprintf("rank %d: %d probes in", r.Rank(), r.Probes().ActiveProbes()))
			r.Probes().OnFire = func(fn string, w probe.Where, n int, at sim.Time) {
				log = append(log, fmt.Sprintf("rank %d %dns: %s.%v ran %d", r.Rank(), int64(at), fn, w, n))
			}
		},
		FunctionDiscovered: func(r *mpi.Rank, fn *probe.Function) {
			for _, li := range insts {
				if li.r == r && li.in.ModuleWatch() == fn.Module {
					li.in.ExtendFunction(fn.Name)
				}
			}
		},
		ProcessExited: func(r *mpi.Rank) {
			for _, li := range insts {
				if li.r == r {
					li.in.Remove()
					log = append(log, fmt.Sprintf("rank %d exit: %d probes left, %d executions, value %v",
						r.Rank(), r.Probes().ActiveProbes(), r.Probes().Executions, li.acc.Sample(eng.Now(), r.CPUTimeAt(eng.Now()))))
				}
			}
		},
	})
	if _, lerr := w.LaunchN("main", 2, nil); lerr != nil {
		t.Fatal(lerr)
	}
	eng.Every(2*sim.Millisecond, func() {
		for _, li := range insts {
			log = append(log, fmt.Sprintf("rank %d %v: sample %v", li.r.Rank(), eng.Now(), li.acc.Sample(eng.Now(), li.r.CPUTimeAt(eng.Now()))))
		}
	})
	eng.At(sim.Time(60*sim.Millisecond), func() {
		if len(insts) == 2 {
			insts[1].in.Remove()
			log = append(log, fmt.Sprintf("rank 1 removed: %d probes left", insts[1].r.Probes().ActiveProbes()))
		}
	})
	if rerr := eng.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	return log, err
}

// Every metric of the standard library × every shape of focus the Consultant
// refines to: the compile-once instances (one frame per instance, code shared
// through the library) must be indistinguishable from the per-instance
// compiler's — the same refusals, the same number of probes on the same
// points from the first call to the last, the same samples every 2 ms, the
// same Executions, nothing left after Remove.
func TestInstancesMatchPerInstanceCompiler(t *testing.T) {
	wp := resource.WholeProgram()
	foci := []struct {
		shape string
		f     resource.Focus
	}{
		{"whole program", wp},
		{"procedure", wp.WithCode("/Code/app.c/outer")},
		{"module", wp.WithCode("/Code/app.c")},
		{"communicator", wp.WithSync("/SyncObject/Message/comm-1")},
		{"communicator + tag", wp.WithSync("/SyncObject/Message/comm-1/tag-7")},
		{"window", wp.WithSync("/SyncObject/Window/0-1")},
		{"barrier", wp.WithSync("/SyncObject/Barrier")},
		{"procedure + communicator + tag", wp.WithCode("/Code/app.c/outer").WithSync("/SyncObject/Message/comm-1/tag-7")},
	}
	lib := StdLib()
	nonzero := map[string]bool{}
	for _, name := range lib.MetricNames() {
		cm := lib.Metric(name)
		for _, fc := range foci {
			got, gotErr := runScript(t, func(tg Target, f resource.Focus) (enabled, metric.Accumulator, error) {
				in, err := cm.Instantiate(tg, f)
				if err != nil {
					return nil, nil, err
				}
				return in, in.Acc, nil
			}, fc.f)
			want, wantErr := runScript(t, func(tg Target, f resource.Focus) (enabled, metric.Accumulator, error) {
				in, err := cm.refInstantiate(tg, f)
				if err != nil {
					return nil, nil, err
				}
				return in, in.Acc, nil
			}, fc.f)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s × %s: error %v, reference %v", name, fc.shape, gotErr, wantErr)
				continue
			}
			if gotErr != nil {
				continue
			}
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("%s × %s: line %d of %d\n got %s\nwant %s", name, fc.shape, i, len(want), append(got, "(end)")[min(i, len(got))], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s × %s: %d log lines, reference %d", name, fc.shape, len(got), len(want))
			}
			last := want[len(want)-1]
			if !strings.Contains(last, "exit: 0 probes left") {
				t.Errorf("%s × %s: %s", name, fc.shape, last)
			}
			for _, line := range want {
				if strings.Contains(line, " exit: ") && !strings.HasSuffix(line, "value 0") {
					nonzero[name] = true
				}
			}
		}
	}
	// The script must actually move every metric, or the comparison above
	// compared nothing.
	for _, name := range lib.MetricNames() {
		if !nonzero[name] {
			t.Errorf("the script never moved %s on any focus", name)
		}
	}
}
