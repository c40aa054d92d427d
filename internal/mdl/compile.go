package mdl

import (
	"fmt"
	"maps"
	"slices"
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
// and metrics, ready to instantiate on processes. Nothing writes to a library
// once Compile has returned it, so any number of sessions may share one.
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
// references and compiling every snippet, once, against the scope of its
// metric or constraint — the code instances later run — so an undeclared
// counter or timer, an unknown call or a wrong arity is an error here, not a
// panic inside a traced process.
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
		// A constraint's one variable is the flag counter it names.
		sc := &scope{counters: map[string]int{c.Name: 0}}
		if err := compileSnippets(sc, c.Foreachs, "constraint "+c.Name); err != nil {
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
		if !cm.declare() {
			return nil, fmt.Errorf("mdl:%d: metric %s: unknown base kind %q", m.Line, m.ID, m.BaseKind)
		}
		if err := compileSnippets(&cm.vars, m.Foreachs, "metric "+m.ID); err != nil {
			return nil, err
		}
		lib.metrics[m.DisplayName] = cm
		lib.order = append(lib.order, m.DisplayName)
	}
	return lib, nil
}

// compileSnippets compiles every probe spec of the foreachs against sc,
// leaving each spec its code.
func compileSnippets(sc *scope, foreachs []*Foreach, owner string) error {
	compile := func(ps *ProbeSpec) (err error) {
		defer catch(&err)
		ps.compile(sc)
		return nil
	}
	for _, fe := range foreachs {
		for _, ps := range fe.Probes {
			if err := compile(ps); err != nil {
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

// merged returns a new library holding lib's declarations and other's on
// top (user-supplied MDL over the standard library, as Paradyn's PCL allows);
// neither operand is written. Duplicates are errors.
func (lib *Library) merged(other *Library) (*Library, error) {
	out := &Library{
		sets:        maps.Clone(lib.sets),
		constraints: maps.Clone(lib.constraints),
		metrics:     maps.Clone(lib.metrics),
		order:       slices.Clone(lib.order),
	}
	for name, items := range other.sets {
		if _, dup := out.sets[name]; dup {
			return nil, fmt.Errorf("mdl: duplicate resourceList %s", name)
		}
		out.sets[name] = items
	}
	for name, c := range other.constraints {
		if _, dup := out.constraints[name]; dup {
			return nil, fmt.Errorf("mdl: duplicate constraint %s", name)
		}
		out.constraints[name] = c
	}
	for _, name := range other.order {
		if _, dup := out.metrics[name]; dup {
			return nil, fmt.Errorf("mdl: duplicate metric %s", name)
		}
		out.metrics[name] = other.metrics[name]
		out.order = append(out.order, name)
	}
	return out, nil
}

// CompiledMetric is an instantiable metric. lib is the library it was
// compiled in, whose sets and constraints its declaration names.
type CompiledMetric struct {
	lib  *Library
	decl *MetricDecl
	// vars gives each of the metric's variables its slot in an instance's
	// frame; acc picks what the daemon samples: one of them, or a clock of
	// the process.
	vars scope
	acc  func(fr *frame, t Target) metric.Accumulator
}

// Name returns the metric's display name, the one it is enabled by.
func (cm *CompiledMetric) Name() string { return cm.decl.DisplayName }

// Units returns the metric's declared units (Table 1's column).
func (cm *CompiledMetric) Units() string { return cm.decl.Units }

// declare lays out an instance's frame — the auxiliary counters and the
// variable the metric id names, of the declared base kind — and picks what
// the daemon samples. It reports false when there is no such kind.
func (cm *CompiledMetric) declare() bool {
	sc, id := &cm.vars, cm.decl.ID
	sc.counters = map[string]int{}
	counter := func(name string) {
		if _, ok := sc.counters[name]; !ok {
			sc.counters[name] = len(sc.counters)
		}
	}
	for _, cn := range cm.decl.Counters {
		counter(cn)
	}
	clock := func(read func(Target) float64) {
		cm.acc = func(_ *frame, t Target) metric.Accumulator {
			return funcAcc(func() float64 { return read(t) })
		}
	}
	switch strings.ToLower(cm.decl.BaseKind) {
	case "counter":
		counter(id)
		i := sc.counters[id]
		cm.acc = func(fr *frame, _ Target) metric.Accumulator { return &fr.counters[i] }
	case "walltimer":
		sc.wallTimer = id
		cm.acc = func(fr *frame, _ Target) metric.Accumulator { return &fr.wallTimer }
	case "processtimer":
		sc.procTimer = id
		cm.acc = func(fr *frame, _ Target) metric.Accumulator { return &fr.procTimer }
	case "cpuclock":
		clock(func(t Target) float64 { return t.CPUNow().Seconds() })
	case "wallclock":
		clock(func(t Target) float64 { return t.WallNow().Seconds() })
	case "sysclock":
		clock(func(t Target) float64 { return t.SystemNow().Seconds() })
	}
	return cm.acc != nil
}

// Instance is a live metric-focus pair on one process: the accumulator
// instrumentation feeds and the probes to remove on disable. It holds its
// frame, so an instance and its run-time state are one allocation.
type Instance struct {
	Acc      metric.Accumulator
	fr       frame
	target   Target
	probeIDs []probe.ID
	// moduleWatch, when non-empty, asks the daemon to call ExtendFunction
	// for newly discovered functions of this module (module-level foci see
	// functions that have not executed yet); extend holds the specs such a
	// function receives, run against fr.
	moduleWatch string
	extend      []*ProbeSpec
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
	in.instrument(placement{&in.fr, in.extend, []string{fname}, ""})
}

// placement is one foreach of an instance: its specs, run against fr,
// inserted on fns; watch names the module whose later functions receive
// them too.
type placement struct {
	fr    *frame
	specs []*ProbeSpec
	fns   []string
	watch string
}

// instrument inserts each spec once over the placement's functions, in spec
// order. Each function meets the specs in turn, so its probe list is the one
// a probe per (function, spec), inserted function by function, would have
// left.
func (in *Instance) instrument(pl placement) {
	if len(pl.fns) > 0 {
		for _, ps := range pl.specs {
			id := in.target.Probes().InsertSet(pl.fns, ps.Where, ps.Order, ps.code, pl.fr)
			in.probeIDs = append(in.probeIDs, id)
		}
	}
	if pl.watch != "" {
		in.moduleWatch = pl.watch
		in.extend = append(in.extend, pl.specs...)
	}
}

// Instantiate enables the metric for one focus on one process: allocates the
// instance with its frame of counters and timers, binds the applicable
// constraints, and inserts all probes. Nothing is compiled here — the specs
// carry their code since Compile. The returned instance is live immediately.
func (cm *CompiledMetric) Instantiate(t Target, f resource.Focus) (*Instance, error) {
	in := &Instance{target: t}
	fr := &in.fr
	fr.counters = make([]metric.Counter, len(cm.vars.counters))
	in.Acc = cm.acc(fr, t)

	// Code-hierarchy constraints (native): restrict constrained statements
	// to when the selected function/module is on the call stack. Metrics
	// instrumented over the magic focusCode set instead place their probes
	// directly on the selected code, so no constraint is needed.
	if !cm.usesFocusCode() {
		if fn := f.CodeFunction(); fn != "" {
			if !cm.hasConstraint("procedureConstraint") {
				return nil, fmt.Errorf("mdl: metric %s cannot be constrained to a procedure", cm.Name())
			}
			fr.inFunc = fn
		} else if mod := f.CodeModule(); mod != "" {
			if !cm.hasConstraint("moduleConstraint") {
				return nil, fmt.Errorf("mdl: metric %s cannot be constrained to a module", cm.Name())
			}
			fr.inModule = mod
		}
	}

	// SyncObject-hierarchy constraints, then the base instrumentation: every
	// placement is known before the first insert, so the probe IDs are sized
	// once.
	var buf [4]placement
	todo, err := cm.applySyncConstraints(fr, f, buf[:0])
	if err != nil {
		return nil, err
	}
	for _, fe := range cm.decl.Foreachs {
		fns, watch := cm.resolveSet(t, fe.SetName, f)
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
		todo = append(todo, placement{fr, fe.Probes, fns, watch})
	}
	n := 0
	for _, pl := range todo {
		n += len(pl.specs)
	}
	in.probeIDs = make([]probe.ID, 0, n)
	for _, pl := range todo {
		in.instrument(pl)
	}
	return in, nil
}

// resolveSet expands a function-set name. For the magic focusCode set it
// returns the focus's function, the discovered functions of its module (with
// a watch for future ones), or nothing for a whole-program focus.
func (cm *CompiledMetric) resolveSet(t Target, set string, f resource.Focus) (fns []string, moduleWatch string) {
	if set != "focusCode" {
		return cm.lib.sets[set], ""
	}
	if fn := f.CodeFunction(); fn != "" {
		return []string{fn}, ""
	}
	if mod := f.CodeModule(); mod != "" {
		return t.FunctionsOfModule(mod), mod
	}
	return nil, ""
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
// SyncObject selection, appending their placements to todo.
func (cm *CompiledMetric) applySyncConstraints(fr *frame, f resource.Focus, todo []placement) ([]placement, error) {
	parts := f.SyncParts()
	if len(parts) == 0 {
		return todo, nil
	}
	category, rest := parts[0], parts[1:]
	// Category-level restriction: constrain to the category's functions.
	catFns, ok := syncCategoryFunctions[category]
	if !ok {
		return nil, fmt.Errorf("mdl: unknown SyncObject category %q", category)
	}
	fr.inSync = catFns
	if len(rest) == 0 {
		return todo, nil
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
		// The constraint's instance is a frame of its own — its flag counter
		// and the bound $constraint components — that gates fr's constrained
		// blocks, and its probes.
		cfr := &frame{counters: make([]metric.Counter, 1), cargs: args}
		fr.flags = append(fr.flags, &cfr.counters[0])
		for _, fe := range cd.Foreachs {
			todo = append(todo, placement{fr: cfr, specs: fe.Probes, fns: cm.lib.sets[fe.SetName]})
		}
		bound++
	}
	if bound == 0 {
		return nil, fmt.Errorf("mdl: metric %s cannot be constrained to %s", cm.Name(), f.SyncPath)
	}
	return todo, nil
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
