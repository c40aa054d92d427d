package mdl

import (
	"reflect"
	"strings"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/metric"
	"pperf/internal/mpi"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// --- parser tests ----------------------------------------------------------

func TestParseFig2PutOps(t *testing.T) {
	src := `
resourceList mpi_put is procedure { "MPI_Put", "PMPI_Put" } flavor { mpi };
metric mpi_rma_put_ops {
    name "rma_put_ops";
    units ops;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    unitstype unnormalized;
    constraint moduleConstraint;
    constraint procedureConstraint;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained (* mpi_rma_put_ops++; *)
        }
    }
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.ResourceLists) != 1 || len(f.Metrics) != 1 {
		t.Fatalf("parsed %d lists, %d metrics", len(f.ResourceLists), len(f.Metrics))
	}
	m := f.Metrics[0]
	if m.DisplayName != "rma_put_ops" || m.BaseKind != "counter" {
		t.Errorf("metric: %+v", m)
	}
	if len(m.Foreachs) != 1 || m.Foreachs[0].SetName != "mpi_put" {
		t.Errorf("foreach: %+v", m.Foreachs)
	}
	ps := m.Foreachs[0].Probes[0]
	if !ps.Constrained || ps.Where != probe.Entry || ps.Order != probe.Append {
		t.Errorf("probe spec: %+v", ps)
	}
	if _, ok := ps.Stmts[0].(*IncStmt); !ok {
		t.Errorf("stmt: %T", ps.Stmts[0])
	}
}

func TestParseConstraintWithBuiltinCall(t *testing.T) {
	src := `
resourceList mpi_put is procedure { "MPI_Put" };
constraint mpi_windowConstraint /SyncObject/Window is counter {
    foreach func in mpi_put {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[7]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := f.Constraints[0]
	if c.Path != "/SyncObject/Window" || c.Deep {
		t.Errorf("constraint: %+v", c)
	}
	ifs, ok := c.Foreachs[0].Probes[0].Stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("stmt: %T", c.Foreachs[0].Probes[0].Stmts[0])
	}
	bin, ok := ifs.Cond.(*BinExpr)
	if !ok || bin.Op != "==" {
		t.Fatalf("cond: %#v", ifs.Cond)
	}
	if _, ok := bin.L.(*CallExpr); !ok {
		t.Errorf("lhs: %T", bin.L)
	}
	if ce, ok := bin.R.(*ConstraintExpr); !ok || ce.Index != 0 {
		t.Errorf("rhs: %#v", bin.R)
	}
}

func TestParseDeepConstraintPath(t *testing.T) {
	src := `
resourceList fns is procedure { "MPI_Send" };
constraint tagC /SyncObject/Message/* is counter {
    foreach func in fns {
        prepend preinsn func.entry (* tagC = 1; *)
    }
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Constraints[0].Deep || f.Constraints[0].Path != "/SyncObject/Message" {
		t.Errorf("deep constraint: %+v", f.Constraints[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`metric m { base is counter { foreach func in nope { } } }`, // checked at compile, parse ok; see below
		`metric m { }`,                      // no base
		`metric m { name nope; }`,           // name wants string
		`resourceList r is widget { "x" };`, // bad kind
		`constraint c /P is counter { foreach func in x { append preinsn func.middle (* x++; *) } }`,
		`metric m { base is counter { foreach func in s { append preinsn func.entry (* x++ *) } } }`, // missing ;
		`junk`,
	}
	for i, src := range cases {
		if i == 0 {
			continue // compile-time error, not parse-time
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d should fail to parse: %s", i, src)
		}
	}
}

// The four scalar attributes go through one parser case: any order, a
// repeated attribute keeps its last value, and a missing ';' is an error
// naming the line.
func TestParseScalarAttributes(t *testing.T) {
	const base = `base is counter { }`
	want := MetricDecl{Units: "ops", UnitsType: "unnormalized", AggOp: "sum", Style: "EventCounter"}
	for _, src := range []string{
		`metric m { units ops; unitstype unnormalized; aggregateOperator sum; style EventCounter; ` + base + ` }`,
		`metric m { style EventCounter; aggregateoperator sum; ` + base + ` unitstype unnormalized; units ops; }`,
		`metric m { units bytes; style SampledFunction; units ops; style EventCounter; unitstype unnormalized; aggregateOperator sum; ` + base + ` }`,
	} {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		d := f.Metrics[0]
		if got := (MetricDecl{Units: d.Units, UnitsType: d.UnitsType, AggOp: d.AggOp, Style: d.Style}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", src, got, want)
		}
	}
	for _, attr := range []string{"units", "unitstype", "aggregateOperator", "style"} {
		src := "metric m {\n  name \"m\";\n  " + attr + " x\n  " + base + "\n}"
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "mdl:4:") || !strings.Contains(err.Error(), `expected ;`) {
			t.Errorf("%s without ';': err = %v, want an 'expected ;' error at line 4 (the next token's)", attr, err)
		}
		if _, err := Parse("metric m { " + attr + ` "x"; ` + base + " }"); err == nil {
			t.Errorf("%s with a string value parsed; it takes an identifier", attr)
		}
	}
	// A string that merely spells an attribute is not one.
	if _, err := Parse(`metric m { "units" ops; ` + base + ` }`); err == nil {
		t.Error(`"units" as a string literal was taken for the attribute`)
	}
}

// Every standard metric declares units, and the RMA metrics declare the
// ones Table 1 lists.
func TestStdLibUnits(t *testing.T) {
	lib := StdLib()
	for _, name := range lib.MetricNames() {
		if cm := lib.Metric(name); cm.Name() != name || cm.Units() == "" {
			t.Errorf("metric %s: Name() = %q, Units() = %q", name, cm.Name(), cm.Units())
		}
	}
	for name, units := range map[string]string{
		"rma_put_ops": "ops", "rma_get_ops": "ops", "rma_acc_ops": "ops", "rma_ops": "ops",
		"rma_put_bytes": "bytes", "rma_get_bytes": "bytes", "rma_acc_bytes": "bytes", "rma_bytes": "bytes",
		"at_rma_sync_wait": "CPUs", "pt_rma_sync_wait": "CPUs", "rma_sync_wait": "CPUs", "rma_sync_ops": "ops",
	} {
		if got := lib.Metric(name).Units(); got != units {
			t.Errorf("%s units = %q, want %q", name, got, units)
		}
	}
}

func TestCompileChecksReferences(t *testing.T) {
	if _, err := CompileSource(`metric m { name "m"; base is counter { foreach func in nope { } } }`); err == nil {
		t.Error("unknown set should fail compile")
	}
	if _, err := CompileSource(`metric m { name "m"; constraint ghost; base is counter { } }`); err == nil {
		t.Error("unknown constraint should fail compile")
	}
	dup := `resourceList a is procedure { "X" };
resourceList a is procedure { "Y" };`
	if _, err := CompileSource(dup); err == nil {
		t.Error("duplicate resourceList should fail")
	}
}

func TestStdLibCompiles(t *testing.T) {
	lib := StdLib()
	want := []string{
		"rma_put_ops", "rma_get_ops", "rma_acc_ops", "rma_ops",
		"rma_put_bytes", "rma_get_bytes", "rma_acc_bytes", "rma_bytes",
		"at_rma_sync_wait", "pt_rma_sync_wait", "rma_sync_wait", "rma_sync_ops",
		"sync_wait_inclusive", "io_wait", "cpu_inclusive",
		"msgs_sent", "msgs_recv", "msg_bytes_sent", "msg_bytes_recv",
	}
	for _, name := range want {
		if lib.Metric(name) == nil {
			t.Errorf("stdlib missing metric %s", name)
		}
	}
}

func TestUserLibraryMerge(t *testing.T) {
	lib, err := NewLibraryWithStd(`
resourceList my_fns is procedure { "MPI_Barrier", "PMPI_Barrier" };
metric my_barriers {
    name "my_barriers";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    base is counter {
        foreach func in my_fns {
            append preinsn func.entry constrained (* my_barriers++; *)
        }
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Metric("my_barriers") == nil || lib.Metric("rma_put_ops") == nil {
		t.Error("merged library should hold both user and std metrics")
	}
	// Redeclaring a standard name must fail, whatever it names.
	for _, c := range []struct{ src, want string }{
		{`metric x { name "rma_put_ops"; base is counter { } }`, "mdl: duplicate metric rma_put_ops"},
		{`resourceList mpi_put is procedure { "f" };`, "mdl: duplicate resourceList mpi_put"},
		{`resourceList s is procedure { "f" };
constraint mpi_msgTagConstraint /SyncObject/Message/* is counter { foreach func in s { } }`, "mdl: duplicate constraint mpi_msgTagConstraint"},
	} {
		if _, err := NewLibraryWithStd(c.src); err == nil || err.Error() != c.want {
			t.Errorf("redeclaring a standard name: error %v, want %q\n%s", err, c.want, c.src)
		}
	}
	// The merge builds a new library; the shared standard one is not written.
	if std := StdLib(); std == lib || std.Metric("my_barriers") != nil || std.sets["my_fns"] != nil ||
		len(std.MetricNames())+1 != len(lib.MetricNames()) {
		t.Error("merging user MDL wrote to the standard library")
	}
	if lib.Metric("rma_put_ops") != StdLib().Metric("rma_put_ops") {
		t.Error("the merged library should hold the standard library's compiled metrics, not copies")
	}
}

// There is one standard library per process: without user source
// NewLibraryWithStd hands out StdLib itself, compiling nothing.
func TestNewLibraryWithStdIsStdLibWithoutUserSource(t *testing.T) {
	lib, err := NewLibraryWithStd("")
	if err != nil || lib != StdLib() {
		t.Errorf(`NewLibraryWithStd("") = %p, %v; want StdLib() %p`, lib, err, StdLib())
	}
	if n := testing.AllocsPerRun(10, func() { NewLibraryWithStd("") }); n != 0 {
		t.Errorf(`NewLibraryWithStd("") allocates %v objects; a second session must not compile StdSource again`, n)
	}
}

// --- instrumentation tests over the real MPI runtime -----------------------

// rankTarget adapts an mpi.Rank to the mdl.Target interface (as the daemon
// does in production).
type rankTarget struct{ r *mpi.Rank }

func (t rankTarget) Probes() *probe.Process            { return t.r.Probes() }
func (t rankTarget) FunctionsOfModule(string) []string { return nil }
func (t rankTarget) WallNow() sim.Time                 { return t.r.Now() }
func (t rankTarget) CPUNow() sim.Duration              { return t.r.CPUTime() }
func (t rankTarget) SystemNow() sim.Duration           { return t.r.SystemTimeAt(t.r.Now()) }

// runInstrumented launches prog on n LAM ranks, instruments every rank with
// the named metric at the given focus before the clock starts, runs, and
// returns the final per-rank values.
func runInstrumented(t *testing.T, kind mpi.ImplKind, n int, name string, f resource.Focus, prog mpi.Program) []float64 {
	t.Helper()
	eng := sim.NewEngine(11)
	w := mpi.NewWorld(eng, cluster.DefaultSpec(n, 1), mpi.NewImpl(kind))
	w.Register("main", prog)
	if _, err := w.LaunchN("main", n, nil); err != nil {
		t.Fatal(err)
	}
	cm := StdLib().Metric(name)
	if cm == nil {
		t.Fatalf("no metric %s", name)
	}
	var insts []*Instance
	var ranks []*mpi.Rank
	for _, r := range w.Ranks() {
		in, err := cm.Instantiate(rankTarget{r}, f)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, in)
		ranks = append(ranks, r)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(insts))
	for i, in := range insts {
		vals[i] = in.Acc.Sample(ranks[i].Now(), ranks[i].CPUTime())
	}
	return vals
}

func TestRMAPutOpsCounts(t *testing.T) {
	vals := runInstrumented(t, mpi.LAM, 2, "rma_put_ops", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			win, _ := r.World().WinCreate(r, 64, 1, nil)
			win.Fence(0)
			if r.Rank() == 0 {
				for i := 0; i < 7; i++ {
					win.Put(nil, 4, mpi.Byte, 1, 0, 4, mpi.Byte)
				}
			}
			win.Fence(0)
			win.Free()
		})
	if vals[0] != 7 || vals[1] != 0 {
		t.Errorf("put ops = %v, want [7 0]", vals)
	}
}

func TestRMAPutBytesUsesTypeSize(t *testing.T) {
	vals := runInstrumented(t, mpi.LAM, 2, "rma_put_bytes", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			win, _ := r.World().WinCreate(r, 1024, 1, nil)
			win.Fence(0)
			if r.Rank() == 0 {
				// 5 puts of 16 doubles = 5*16*8 = 640 bytes.
				for i := 0; i < 5; i++ {
					win.Put(nil, 16, mpi.Double, 1, 0, 16, mpi.Double)
				}
			}
			win.Fence(0)
			win.Free()
		})
	if vals[0] != 640 {
		t.Errorf("put bytes = %v, want 640", vals[0])
	}
}

func TestWindowConstraintSelectsOneWindow(t *testing.T) {
	// Two windows; focus on the first: only its 3 puts count, not the other
	// window's 5.
	var focusID string
	prog := func(r *mpi.Rank, _ []string) {
		c := r.World()
		w1, _ := c.WinCreate(r, 64, 1, nil)
		w2, _ := c.WinCreate(r, 64, 1, nil)
		if r.Rank() == 0 && focusID == "" {
			focusID = w1.UniqueID()
		}
		w1.Fence(0)
		w2.Fence(0)
		if r.Rank() == 0 {
			for i := 0; i < 3; i++ {
				w1.Put(nil, 1, mpi.Byte, 1, 0, 1, mpi.Byte)
			}
			for i := 0; i < 5; i++ {
				w2.Put(nil, 1, mpi.Byte, 1, 0, 1, mpi.Byte)
			}
		}
		w1.Fence(0)
		w2.Fence(0)
		w1.Free()
		w2.Free()
	}
	// First run discovers the window id deterministically; the id of the
	// first window is "0-1" (first alloc, first serial).
	vals := runInstrumented(t, mpi.LAM, 2, "rma_put_ops",
		resource.WholeProgram().WithSync("/SyncObject/Window/0-1"), prog)
	if vals[0] != 3 {
		t.Errorf("focused put ops = %v, want 3", vals[0])
	}
}

func TestSyncWaitMeasuresBlocking(t *testing.T) {
	// Rank 1 blocks ~2s in MPI_Recv; rank 0 computes then sends.
	vals := runInstrumented(t, mpi.LAM, 2, "sync_wait_inclusive", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			if r.Rank() == 0 {
				r.Compute(2 * sim.Second)
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 1, mpi.Byte, 0, 0)
			}
		})
	if vals[1] < 1.9 || vals[1] > 2.2 {
		t.Errorf("rank1 sync wait = %v, want ≈2s", vals[1])
	}
	if vals[0] > 0.5 {
		t.Errorf("rank0 sync wait = %v, should be small", vals[0])
	}
}

func TestProcedureConstraintRestrictsSyncWait(t *testing.T) {
	// Sync waiting inside Grecv_message counts; identical waiting inside
	// Gother does not when the focus selects Grecv_message.
	focus := resource.WholeProgram().WithCode("/Code/app.c/Grecv_message")
	vals := runInstrumented(t, mpi.LAM, 2, "sync_wait_inclusive", focus,
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			if r.Rank() == 0 {
				r.Compute(1 * sim.Second)
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
				r.Compute(1 * sim.Second)
				c.Send(r, nil, 1, mpi.Byte, 1, 1)
			} else {
				r.Call("app.c", "Grecv_message", func() {
					c.Recv(r, nil, 1, mpi.Byte, 0, 0)
				})
				r.Call("app.c", "Gother", func() {
					c.Recv(r, nil, 1, mpi.Byte, 0, 1)
				})
			}
		})
	if vals[1] < 0.9 || vals[1] > 1.3 {
		t.Errorf("constrained sync wait = %v, want ≈1s (only Grecv_message)", vals[1])
	}
}

func TestMsgMetricsAndCommConstraint(t *testing.T) {
	// Whole-program byte counting.
	vals := runInstrumented(t, mpi.LAM, 2, "msg_bytes_sent", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			if r.Rank() == 0 {
				for i := 0; i < 10; i++ {
					c.Send(r, nil, 25, mpi.Int, 1, 0) // 100 bytes each
				}
			} else {
				for i := 0; i < 10; i++ {
					c.Recv(r, nil, 25, mpi.Int, 0, 0)
				}
			}
		})
	if vals[0] != 1000 {
		t.Errorf("bytes sent = %v, want 1000", vals[0])
	}
}

func TestTagConstraint(t *testing.T) {
	// Focus on comm-1 (the world comm) tag-7: only tag-7 sends count.
	focus := resource.WholeProgram().WithSync("/SyncObject/Message/comm-1/tag-7")
	vals := runInstrumented(t, mpi.LAM, 2, "msgs_sent", focus,
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			if r.Rank() == 0 {
				for i := 0; i < 4; i++ {
					c.Send(r, nil, 1, mpi.Byte, 1, 7)
				}
				for i := 0; i < 9; i++ {
					c.Send(r, nil, 1, mpi.Byte, 1, 8)
				}
			} else {
				for i := 0; i < 13; i++ {
					c.Recv(r, nil, 1, mpi.Byte, 0, mpi.AnyTag)
				}
			}
		})
	if vals[0] != 4 {
		t.Errorf("tag-constrained msgs = %v, want 4", vals[0])
	}
}

func TestCPUInclusiveOnFunction(t *testing.T) {
	focus := resource.WholeProgram().WithCode("/Code/app.c/bottleneckProcedure")
	vals := runInstrumented(t, mpi.LAM, 1, "cpu_inclusive", focus,
		func(r *mpi.Rank, _ []string) {
			r.Call("app.c", "bottleneckProcedure", func() { r.Compute(3 * sim.Second) })
			r.Call("app.c", "irrelevantProcedure0", func() { r.Compute(1 * sim.Second) })
		})
	if vals[0] < 2.9 || vals[0] > 3.1 {
		t.Errorf("cpu_inclusive = %v, want ≈3", vals[0])
	}
}

func TestCPUInclusiveWholeProgramReadsClock(t *testing.T) {
	vals := runInstrumented(t, mpi.LAM, 1, "cpu_inclusive", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			r.Compute(2 * sim.Second)
			r.IdleWait(5 * sim.Second) // not CPU
		})
	if vals[0] < 1.9 || vals[0] > 2.2 {
		t.Errorf("whole-program cpu = %v, want ≈2", vals[0])
	}
}

func TestSystemTimeMetric(t *testing.T) {
	vals := runInstrumented(t, mpi.LAM, 1, "system_time", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			r.SystemCompute(4 * sim.Second)
			r.Compute(1 * sim.Second)
		})
	// MPI_Init's library startup also accrues a sliver of system time.
	if vals[0] < 4 || vals[0] > 4.01 {
		t.Errorf("system_time = %v, want ≈4", vals[0])
	}
}

func TestIOWaitUnderMPICH(t *testing.T) {
	// MPICH blocking recv goes through read(): io_wait sees it.
	vals := runInstrumented(t, mpi.MPICH, 2, "io_wait", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			if r.Rank() == 0 {
				r.Compute(1 * sim.Second)
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 1, mpi.Byte, 0, 0)
			}
		})
	if vals[1] < 0.9 {
		t.Errorf("io_wait = %v, want ≈1s of socket blocking", vals[1])
	}
}

func TestInstanceRemoveStopsCounting(t *testing.T) {
	eng := sim.NewEngine(3)
	w := mpi.NewWorld(eng, cluster.DefaultSpec(2, 1), mpi.NewImpl(mpi.LAM))
	var inst *Instance
	w.Register("main", func(r *mpi.Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
			}
			inst.Remove() // dynamic deletion mid-run
			for i := 0; i < 5; i++ {
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
			}
		} else {
			for i := 0; i < 10; i++ {
				c.Recv(r, nil, 1, mpi.Byte, 0, 0)
			}
		}
	})
	if _, err := w.LaunchN("main", 2, nil); err != nil {
		t.Fatal(err)
	}
	r0 := w.Ranks()[0]
	var err error
	inst, err = StdLib().Metric("msgs_sent").Instantiate(rankTarget{r0}, resource.WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := inst.Acc.Sample(r0.Now(), r0.CPUTime()); got != 5 {
		t.Errorf("msgs after mid-run removal = %v, want 5", got)
	}
}

func TestBarrierFocusRestrictsSyncWait(t *testing.T) {
	// sync_wait focused on /SyncObject/Barrier counts barrier time but not
	// plain message waiting.
	focus := resource.WholeProgram().WithSync("/SyncObject/Barrier")
	vals := runInstrumented(t, mpi.LAM, 2, "sync_wait_inclusive", focus,
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			// Message wait: rank1 waits 1s for a message — must NOT count.
			if r.Rank() == 0 {
				r.Compute(1 * sim.Second)
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 1, mpi.Byte, 0, 0)
			}
			// Barrier wait: rank0 late by 2s — rank1's barrier time counts.
			if r.Rank() == 0 {
				r.Compute(2 * sim.Second)
			}
			c.Barrier(r)
		})
	if vals[1] < 1.8 || vals[1] > 2.4 {
		t.Errorf("barrier-focused sync wait = %v, want ≈2s", vals[1])
	}
}

func TestMetricNamesOrdered(t *testing.T) {
	names := StdLib().MetricNames()
	if len(names) < 15 {
		t.Errorf("stdlib has %d metrics", len(names))
	}
	if names[0] != "rma_put_ops" {
		t.Errorf("first metric = %q", names[0])
	}
	joined := strings.Join(names, ",")
	if strings.Contains(joined, "mpi_rma_put_ops") {
		t.Error("MetricNames should use display names")
	}
}

func TestUnconstrainableFocusErrors(t *testing.T) {
	eng := sim.NewEngine(3)
	w := mpi.NewWorld(eng, cluster.DefaultSpec(1, 1), mpi.NewImpl(mpi.LAM))
	w.Register("main", func(r *mpi.Rank, _ []string) {})
	if _, err := w.LaunchN("main", 1, nil); err != nil {
		t.Fatal(err)
	}
	r0 := w.Ranks()[0]
	// io_wait has no window constraint: focusing it on a window must fail.
	_, err := StdLib().Metric("io_wait").Instantiate(rankTarget{r0},
		resource.WholeProgram().WithSync("/SyncObject/Window/0-1"))
	if err == nil {
		t.Error("io_wait focused on a window should error")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// An event counter is shipped as the growth of its accumulator between two
// samples; the sampler (the daemon) keeps the cursor, the instance only has
// to answer Sample with the cumulative value each time.
func TestEventCounterDeltaSampling(t *testing.T) {
	var c metric.Counter
	in := &Instance{Acc: &c}
	last := 0.0
	for _, add := range []float64{3, 0, 5} {
		c.Add(add)
		v := in.Acc.Sample(0, 0)
		if d := v - last; d != add {
			t.Errorf("delta after adding %v = %v", add, d)
		}
		last = v
	}
	if last != 8 {
		t.Errorf("cumulative value = %v, want 8", last)
	}
}

func TestIOBytesMetricCountsFileTraffic(t *testing.T) {
	vals := runInstrumented(t, mpi.MPICH2, 2, "io_bytes", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			f, err := c.FileOpen(r, "x", mpi.ModeCreate|mpi.ModeRDWR, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				f.WriteAt(r, int64(i*1000), nil, 250, mpi.Int) // 1000 bytes each
			}
			f.ReadAt(r, 0, make([]byte, 500), 500, mpi.Byte)
			f.Close(r)
		})
	// Per rank: 5×1000 written + 500 read = 5500 bytes.
	if vals[0] != 5500 || vals[1] != 5500 {
		t.Errorf("io_bytes = %v, want [5500 5500]", vals)
	}
}

func TestIOOpsMetric(t *testing.T) {
	vals := runInstrumented(t, mpi.LAM, 1, "io_ops", resource.WholeProgram(),
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			f, _ := c.FileOpen(r, "y", mpi.ModeCreate|mpi.ModeRDWR, nil)
			f.WriteAt(r, 0, nil, 1, mpi.Byte)
			f.WriteAt(r, 1, nil, 1, mpi.Byte)
			f.ReadAt(r, 0, make([]byte, 1), 1, mpi.Byte)
			f.Close(r)
		})
	if vals[0] != 3 {
		t.Errorf("io_ops = %v, want 3", vals[0])
	}
}

// A snippet that cannot execute — an undeclared counter or timer, an unknown
// call, a wrong arity — is a compile error naming the line, the metric or
// constraint and the culprit; it used to compile and panic inside the traced
// process at its first probe execution.
func TestCompileRejectsBrokenSnippets(t *testing.T) {
	metricWith := func(snippet string) string {
		return `resourceList bfns is procedure { "MPI_Barrier" };
metric broken {
    name "b"; units ops; counter aux;
    base is counter {
        foreach func in bfns { append preinsn func.entry constrained (* ` + snippet + ` *) }
    }
}`
	}
	for _, c := range []struct{ src, want string }{
		{metricWith(`ghost++;`), `mdl:5: metric broken: unknown counter "ghost"`},
		{metricWith(`broken += ghost;`), `mdl:5: metric broken: unknown counter "ghost"`},
		{metricWith(`if (aux == 0) ghost = 1;`), `unknown counter "ghost"`},
		{metricWith(`startWalltimer(ghost);`), `mdl:5: metric broken: unknown walltimer "ghost"`},
		{metricWith(`stopProcessTimer(broken);`), `unknown processtimer "broken"`},
		{metricWith(`startWalltimer();`), `startWalltimer needs one timer argument`},
		{metricWith(`startWalltimer(1 + 2);`), `startWalltimer argument must be a timer name`},
		{metricWith(`frobnicate(aux);`), `unknown call "frobnicate"`},
		{metricWith(`aux = frobnicate($arg[0]);`), `unknown builtin "frobnicate"`},
		{metricWith(`aux = MPI_Type_size($arg[0], $arg[1]);`), `MPI_Type_size needs one argument, has 2`},
		{metricWith(`MPI_Type_size($arg[2]);`), `MPI_Type_size needs (datatype, &out)`},
		{metricWith(`MPI_Type_size($arg[2], &ghost);`), `unknown counter "ghost"`},
		{`metric m { name "m"; base is sundial { } }`, `mdl:1: metric m: unknown base kind "sundial"`},
		{`resourceList s is procedure { "f" };
constraint c /SyncObject/Message is counter {
    foreach func in s { prepend preinsn func.entry (* if ($constraint[0] == "x") other = 1; *) }
}`, `mdl:3: constraint c: unknown counter "other"`},
	} {
		_, err := NewLibraryWithStd(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("compile error = %v, want %q\n%s", err, c.want, c.src)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	cases := []string{
		`metric m { name "unterminated`,
		`metric m { base is counter { foreach func in s { append preinsn func.entry (* x++; } } }`,
		`metric m ! {}`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("should fail: %q", src)
		}
	}
}

func TestWindowConstraintIgnoresOtherWindows(t *testing.T) {
	// Explicit check of the Fig 2 flag protocol: the constraint's prepended
	// entry probe runs before the metric's appended start, and the metric's
	// prepended stop runs before the constraint's appended clear.
	focus := resource.WholeProgram().WithSync("/SyncObject/Window/0-1")
	vals := runInstrumented(t, mpi.MPICH2, 2, "rma_sync_wait", focus,
		func(r *mpi.Rank, _ []string) {
			c := r.World()
			w1, _ := c.WinCreate(r, 32, 1, nil) // 0-1
			w2, _ := c.WinCreate(r, 32, 1, nil) // 1-2
			// Rank 0 late to w2's fence only: that wait must NOT count
			// toward the focus on w1.
			if r.Rank() == 0 {
				r.Compute(2 * sim.Second)
			}
			w2.Fence(0)
			w1.Fence(0) // w1's fence: everyone arrives together
			w1.Free()
			w2.Free()
		})
	// Rank 1 waited ≈2s at w2's fence; focused on w1 it must see ≈0.
	if vals[1] > 0.2 {
		t.Errorf("w1-focused sync wait = %v, should exclude w2's fence wait", vals[1])
	}
}
