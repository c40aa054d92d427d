package mdl

import (
	"pperf/internal/mpi"
	"pperf/internal/probe"
)

// File is a parsed MDL or PCL source: declarations in order. Compile reads
// the resource lists, constraints and metrics; the daemons, processes and
// tunables configure a run (internal/core, cmd/pperf -pcl).
type File struct {
	ResourceLists []*ResourceListDecl
	Constraints   []*ConstraintDecl
	Metrics       []*MetricDecl
	Daemons       []*DaemonDecl
	Processes     []*ProcessDecl
	Tunables      []*TunableDecl
	// Source is the text the file was parsed from.
	Source string
}

// DaemonDecl is `daemon <id> { command "…"; flavor <id>;
// mpi_implementation "…"; }`.
type DaemonDecl struct {
	Name    string
	Command string
	Flavor  string
	// Impl is the §4.1 mpi_implementation attribute, the MPI implementation
	// the daemon starts processes with; HasImpl says the attribute was given.
	Impl    mpi.ImplKind
	HasImpl bool
	Line    int
}

// ProcessDecl is `process <id> { command "…"; daemon <id>; }`: an
// application to run.
type ProcessDecl struct {
	Name    string
	Command string // an mpirun command line, parsed by internal/cluster
	Daemon  string // the daemon definition to start it with
	Line    int
}

// TunableDecl is one `"<name>" <number>;` of a `tunable_constant { … }`
// block, e.g. a Performance Consultant threshold.
type TunableDecl struct {
	Name  string
	Value float64
	Line  int
}

// Daemon returns the named daemon declaration, or nil.
func (f *File) Daemon(name string) *DaemonDecl {
	for _, d := range f.Daemons {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Tunable returns the named tunable's last setting, or nil.
func (f *File) Tunable(name string) *TunableDecl {
	for i := len(f.Tunables) - 1; i >= 0; i-- {
		if f.Tunables[i].Name == name {
			return f.Tunables[i]
		}
	}
	return nil
}

// ResourceListDecl is `resourceList <id> is procedure { "A", "B" } flavor { mpi };`
type ResourceListDecl struct {
	Name   string
	Kind   string // "procedure"
	Items  []string
	Flavor []string
	Line   int
}

// ConstraintDecl is `constraint <id> <path> is counter { foreach ... }`.
// The path may end in /* to indicate the constraint binds a deeper focus
// component (e.g. /SyncObject/Message/* for message tags).
type ConstraintDecl struct {
	Name     string
	Path     string // without trailing /*
	Deep     bool   // had trailing /*
	Foreachs []*Foreach
	Line     int
}

// MetricDecl is a `metric <id> { ... }` block.
type MetricDecl struct {
	ID          string // internal identifier, also the primary variable name
	DisplayName string // name "..." attribute
	Units       string
	UnitsType   string // normalized | unnormalized | sampled
	AggOp       string // sum | avg | min | max
	Style       string // EventCounter | SampledFunction
	Flavor      []string
	Constraints []string // referenced constraint names (incl. built-ins)
	Counters    []string // auxiliary counter declarations
	BaseKind    string   // counter | walltimer | processtimer | cpuclock
	Foreachs    []*Foreach
	Line        int
}

// Foreach is `foreach func in <set> { <probes> }`.
type Foreach struct {
	SetName string
	Probes  []*ProbeSpec
	Line    int
}

// ProbeSpec is `append|prepend preinsn func.entry|func.return [constrained]
// (* stmts *)`.
type ProbeSpec struct {
	Order       probe.Order
	Where       probe.Where
	Constrained bool
	Stmts       []Stmt
	Line        int
	// code is the compiled block, set once by Compile: the probe body that
	// runs it against the instance frame it is inserted with.
	code probe.Code
}

// --- statements inside (* ... *) blocks -----------------------------------

// Stmt is an instrumentation statement; compile (snippet.go) turns it into
// a closure over the frame slots of the variables it names.
type Stmt interface{ compile(sc *scope) op }

// IncStmt is `x++;`.
type IncStmt struct{ Var string }

// AddAssignStmt is `x += expr;`.
type AddAssignStmt struct {
	Var string
	Val Expr
}

// AssignStmt is `x = expr;`.
type AssignStmt struct {
	Var string
	Val Expr
}

// CallStmt is `fn(args...);` — startWalltimer(t), stopWalltimer(t),
// startProcessTimer(t), stopProcessTimer(t), MPI_Type_size(dt, &out).
type CallStmt struct {
	Fn   string
	Args []Expr
	Out  string // name after &, if any
}

// IfStmt is `if (cond) stmt`.
type IfStmt struct {
	Cond Expr
	Then Stmt
}

// --- expressions ----------------------------------------------------------

// Expr is an instrumentation expression; compile types it — number, truth
// value, string or object — and turns it into a closure yielding that.
type Expr interface{ compile(sc *scope) value }

// NumExpr is a numeric literal.
type NumExpr struct{ V float64 }

// StrExpr is a string literal.
type StrExpr struct{ V string }

// VarExpr references a counter variable.
type VarExpr struct{ Name string }

// ArgExpr is `$arg[i]`: the probed call's i-th argument.
type ArgExpr struct{ Index int }

// ConstraintExpr is `$constraint[i]`: the i-th bound focus component.
type ConstraintExpr struct{ Index int }

// CallExpr is a builtin call used as a value, e.g.
// DYNINSTWindow_FindUniqueId($arg[7]).
type CallExpr struct {
	Fn   string
	Args []Expr
}

// BinExpr is a binary operation: == != * + >= <= > <.
type BinExpr struct {
	Op   string
	L, R Expr
}
