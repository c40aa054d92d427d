package mdl

import (
	"fmt"
	"strings"

	"pperf/internal/metric"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// Target is the per-process context a metric is instantiated against. The
// daemon implements it around one simulated process.
type Target interface {
	// Probes is the process's dynamic-instrumentation state.
	Probes() *probe.Process
	// FunctionsOfModule lists the functions discovered so far in a source
	// module (for module-level Code foci).
	FunctionsOfModule(module string) []string
	// WallNow/CPUNow/SystemNow expose the process clocks for direct-reading
	// accumulators.
	WallNow() sim.Time
	CPUNow() sim.Duration
	SystemNow() sim.Duration
}

// Library is a compiled set of MDL declarations: function sets, constraints,
// and metrics, ready to instantiate on processes.
type Library struct {
	sets        map[string][]string
	constraints map[string]*ConstraintDecl
	metrics     map[string]*CompiledMetric // keyed by display name
	order       []string
}

// CompileSource parses and compiles MDL text into a Library.
func CompileSource(src string) (*Library, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// Compile builds a Library from a parsed file, checking set and constraint
// references and every snippet: each is compiled once against a throw-away
// instance of its metric or constraint, so an undeclared counter or timer,
// an unknown call or a wrong arity is an error here, not a panic inside a
// traced process.
func Compile(f *File) (*Library, error) {
	lib := &Library{
		sets:        map[string][]string{},
		constraints: map[string]*ConstraintDecl{},
		metrics:     map[string]*CompiledMetric{},
	}
	for _, rl := range f.ResourceLists {
		if _, dup := lib.sets[rl.Name]; dup {
			return nil, fmt.Errorf("mdl:%d: duplicate resourceList %s", rl.Line, rl.Name)
		}
		lib.sets[rl.Name] = rl.Items
	}
	for _, c := range f.Constraints {
		if _, dup := lib.constraints[c.Name]; dup {
			return nil, fmt.Errorf("mdl:%d: duplicate constraint %s", c.Line, c.Name)
		}
		for _, fe := range c.Foreachs {
			if err := lib.checkSet(fe.SetName, c.Line); err != nil {
				return nil, err
			}
		}
		if err := checkSnippets(constraintEnv(c, nil), c.Foreachs, "constraint "+c.Name); err != nil {
			return nil, err
		}
		lib.constraints[c.Name] = c
	}
	for _, m := range f.Metrics {
		if m.DisplayName == "" {
			m.DisplayName = m.ID
		}
		if _, dup := lib.metrics[m.DisplayName]; dup {
			return nil, fmt.Errorf("mdl:%d: duplicate metric %s", m.Line, m.DisplayName)
		}
		for _, fe := range m.Foreachs {
			if err := lib.checkSet(fe.SetName, m.Line); err != nil {
				return nil, err
			}
		}
		for _, cn := range m.Constraints {
			if !isBuiltinConstraint(cn) {
				if _, ok := lib.constraints[cn]; !ok {
					return nil, fmt.Errorf("mdl:%d: metric %s references unknown constraint %s", m.Line, m.ID, cn)
				}
			}
		}
		cm := &CompiledMetric{lib: lib, decl: m}
		e, acc := cm.newEnv(nil)
		if acc == nil {
			return nil, fmt.Errorf("mdl:%d: metric %s: unknown base kind %q", m.Line, m.ID, m.BaseKind)
		}
		if err := checkSnippets(e, m.Foreachs, "metric "+m.ID); err != nil {
			return nil, err
		}
		lib.metrics[m.DisplayName] = cm
		lib.order = append(lib.order, m.DisplayName)
	}
	return lib, nil
}

// checkSnippets compiles every probe spec of the foreachs against e for its
// errors alone.
func checkSnippets(e *env, foreachs []*Foreach, owner string) error {
	check := func(ps *ProbeSpec) (err error) {
		defer catch(&err)
		e.compile(ps)
		return nil
	}
	for _, fe := range foreachs {
		for _, ps := range fe.Probes {
			if err := check(ps); err != nil {
				return fmt.Errorf("mdl:%d: %s: %v", ps.Line, owner, err)
			}
		}
	}
	return nil
}

// checkSet validates a function-set reference; "focusCode" is the magic set
// bound to the focus's Code selection at instantiation time.
func (lib *Library) checkSet(name string, line int) error {
	if name == "focusCode" {
		return nil
	}
	if _, ok := lib.sets[name]; !ok {
		return fmt.Errorf("mdl:%d: unknown function set %s", line, name)
	}
	return nil
}

// isBuiltinConstraint recognizes the native (non-MDL) constraints.
func isBuiltinConstraint(name string) bool {
	switch name {
	case "procedureConstraint", "moduleConstraint", "machineConstraint", "processConstraint":
		return true
	}
	return false
}

// Metric returns the compiled metric with the given display name, or nil.
func (lib *Library) Metric(name string) *CompiledMetric { return lib.metrics[name] }

// MetricNames lists the library's metrics in declaration order.
func (lib *Library) MetricNames() []string { return append([]string(nil), lib.order...) }

// MergeFrom adds the other library's declarations (user-supplied MDL on top
// of the standard library, as Paradyn's PCL allows). Duplicates are errors.
func (lib *Library) MergeFrom(other *Library) error {
	for name, items := range other.sets {
		if _, dup := lib.sets[name]; dup {
			return fmt.Errorf("mdl: duplicate resourceList %s", name)
		}
		lib.sets[name] = items
	}
	for name, c := range other.constraints {
		if _, dup := lib.constraints[name]; dup {
			return fmt.Errorf("mdl: duplicate constraint %s", name)
		}
		lib.constraints[name] = c
	}
	for _, name := range other.order {
		if _, dup := lib.metrics[name]; dup {
			return fmt.Errorf("mdl: duplicate metric %s", name)
		}
		lib.metrics[name] = &CompiledMetric{lib: lib, decl: other.metrics[name].decl}
		lib.order = append(lib.order, name)
	}
	return nil
}

// CompiledMetric is an instantiable metric.
type CompiledMetric struct {
	lib  *Library
	decl *MetricDecl
}

// Name returns the metric's display name, the one it is enabled by.
func (cm *CompiledMetric) Name() string { return cm.decl.DisplayName }

// Units returns the metric's declared units (Table 1's column).
func (cm *CompiledMetric) Units() string { return cm.decl.Units }

// Instance is a live metric-focus pair on one process: the accumulator
// instrumentation feeds and the probes to remove on disable.
type Instance struct {
	Acc      metric.Accumulator
	target   Target
	probeIDs []probe.ID
	// moduleWatch, when non-empty, asks the daemon to call ExtendFunction
	// for newly discovered functions of this module (module-level foci see
	// functions that have not executed yet).
	moduleWatch string
	extendSpecs []*ProbeSpec
	env         *env
}

// Remove deletes the instance's instrumentation from the process —
// Paradyn's dynamic deletion of measurement instructions.
func (in *Instance) Remove() {
	for _, id := range in.probeIDs {
		in.target.Probes().Remove(id)
	}
	in.probeIDs = nil
}

// ModuleWatch returns the module whose future function discoveries should
// extend this instance ("" if none).
func (in *Instance) ModuleWatch() string { return in.moduleWatch }

// ExtendFunction instruments a newly discovered function of the watched
// module.
func (in *Instance) ExtendFunction(fname string) {
	for _, ps := range in.extendSpecs {
		in.probeIDs = append(in.probeIDs, in.insertSpec(fname, ps))
	}
}

func (in *Instance) insertSpec(fname string, ps *ProbeSpec) probe.ID {
	h := in.env.handler(ps)
	return in.target.Probes().Insert(fname, ps.Where, ps.Order, h)
}

// Instantiate compiles the metric for one focus on one process: allocates
// its counters/timers, instantiates the applicable constraints, and inserts
// all probes. The returned instance is live immediately.
func (cm *CompiledMetric) Instantiate(t Target, f resource.Focus) (*Instance, error) {
	e, acc := cm.newEnv(t)
	in := &Instance{target: t, env: e, Acc: acc}

	// Code-hierarchy constraints (native): restrict constrained statements
	// to when the selected function/module is on the call stack. Metrics
	// instrumented over the magic focusCode set instead place their probes
	// directly on the selected code, so no predicate is needed.
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
			e.preds = append(e.preds, func(ev *probe.Event) bool { return inModule(ev.Proc, mod) })
		}
	}

	// SyncObject-hierarchy constraints.
	if err := cm.applySyncConstraints(e, in, f); err != nil {
		return nil, err
	}

	// Base instrumentation.
	for _, fe := range cm.decl.Foreachs {
		fns, watch, err := cm.resolveSet(t, fe.SetName, f)
		if err != nil {
			return nil, err
		}
		if watch != "" {
			in.moduleWatch = watch
			in.extendSpecs = append(in.extendSpecs, fe.Probes...)
		}
		if fe.SetName == "focusCode" && len(fns) == 0 && watch == "" {
			// Whole-program Code focus on a focusCode-based timer metric:
			// fall back to reading the process clock directly.
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

// newEnv allocates one instance's variables: the accumulator the metric id
// names, of the declared base kind (nil if there is no such kind), and the
// auxiliary counters. t may be nil when the env is only compiled against.
func (cm *CompiledMetric) newEnv(t Target) (*env, metric.Accumulator) {
	e := &env{
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

// resolveSet expands a function-set name. For the magic focusCode set it
// returns the focus's function, the discovered functions of its module (with
// a watch for future ones), or nothing for a whole-program focus.
func (cm *CompiledMetric) resolveSet(t Target, set string, f resource.Focus) (fns []string, moduleWatch string, err error) {
	if set != "focusCode" {
		return cm.lib.sets[set], "", nil
	}
	if fn := f.CodeFunction(); fn != "" {
		return []string{fn}, "", nil
	}
	if mod := f.CodeModule(); mod != "" {
		return t.FunctionsOfModule(mod), mod, nil
	}
	return nil, "", nil
}

// usesFocusCode reports whether any foreach targets the magic focusCode set.
func (cm *CompiledMetric) usesFocusCode() bool {
	for _, fe := range cm.decl.Foreachs {
		if fe.SetName == "focusCode" {
			return true
		}
	}
	return false
}

func (cm *CompiledMetric) hasConstraint(name string) bool {
	for _, c := range cm.decl.Constraints {
		if c == name {
			return true
		}
	}
	return false
}

// applySyncConstraints instantiates the constraints implied by the focus's
// SyncObject selection.
func (cm *CompiledMetric) applySyncConstraints(e *env, in *Instance, f resource.Focus) error {
	parts := f.SyncParts()
	if len(parts) == 0 {
		return nil
	}
	category, rest := parts[0], parts[1:]
	// Category-level restriction: constrain to the category's functions.
	catFns, ok := syncCategoryFunctions[category]
	if !ok {
		return fmt.Errorf("mdl: unknown SyncObject category %q", category)
	}
	e.preds = append(e.preds, func(ev *probe.Event) bool { return inAnyFunction(ev.Proc, catFns) })
	if len(rest) == 0 {
		return nil
	}
	// Deeper components bind MDL constraints declared for this path.
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
				continue // e.g. tag constraint with a comm-only focus
			}
			args = rest[1:]
		} else {
			args = rest[:1]
		}
		if err := cm.instantiateConstraint(e, in, cd, args); err != nil {
			return err
		}
		bound++
	}
	if bound == 0 {
		return fmt.Errorf("mdl: metric %s cannot be constrained to %s", cm.Name(), f.SyncPath)
	}
	return nil
}

// instantiateConstraint allocates the constraint's flag counter, binds its
// $constraint arguments, and inserts its probes.
func (cm *CompiledMetric) instantiateConstraint(e *env, in *Instance, cd *ConstraintDecl, args []string) error {
	cenv := constraintEnv(cd, args)
	e.flags = append(e.flags, cenv.counters[cd.Name])
	for _, fe := range cd.Foreachs {
		fns := cm.lib.sets[fe.SetName]
		for _, fname := range fns {
			for _, ps := range fe.Probes {
				h := cenv.handler(ps)
				in.probeIDs = append(in.probeIDs, in.target.Probes().Insert(fname, ps.Where, ps.Order, h))
			}
		}
	}
	return nil
}

// constraintEnv is the env a constraint's snippets compile against: its flag
// counter, named by the constraint, and the bound $constraint components.
func constraintEnv(cd *ConstraintDecl, args []string) *env {
	return &env{counters: map[string]*metric.Counter{cd.Name: {}}, cargs: args}
}

// syncCategoryFunctions maps SyncObject categories to the traced functions
// whose time/ops belong to that category.
var syncCategoryFunctions = map[string][]string{
	resource.Message: withPMPI("MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv",
		"MPI_Wait", "MPI_Waitall", "MPI_Sendrecv"),
	resource.Barrier: withPMPI("MPI_Barrier"),
	resource.Window: withPMPI("MPI_Win_create", "MPI_Win_free", "MPI_Win_fence",
		"MPI_Win_start", "MPI_Win_complete", "MPI_Win_post", "MPI_Win_wait",
		"MPI_Win_lock", "MPI_Win_unlock", "MPI_Put", "MPI_Get", "MPI_Accumulate"),
}

func withPMPI(names ...string) []string {
	out := make([]string, 0, 2*len(names))
	for _, n := range names {
		out = append(out, n, "P"+n)
	}
	return out
}

func inModule(p *probe.Process, module string) bool {
	for _, f := range p.Stack() {
		if f.Module == module {
			return true
		}
	}
	return false
}

func inAnyFunction(p *probe.Process, names []string) bool {
	for _, f := range p.Stack() {
		for _, n := range names {
			if f.Name == n {
				return true
			}
		}
	}
	return false
}

// funcAcc adapts a closure into an Accumulator.
type funcAcc func() float64

func (f funcAcc) Sample(sim.Time, sim.Duration) float64 { return f() }
