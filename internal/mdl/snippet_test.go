package mdl

import (
	"runtime"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/mpi"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// procTarget adapts a bare probe.Process to Target, so snippets can be
// driven call by call with hand-picked arguments.
type procTarget struct{ p *probe.Process }

type zeroClock struct{}

func (zeroClock) Now() sim.Time            { return 0 }
func (zeroClock) CPUTime() sim.Duration    { return 0 }
func (zeroClock) AddOverhead(sim.Duration) {}

func (t procTarget) Probes() *probe.Process  { return t.p }
func (t procTarget) WallNow() sim.Time       { return 0 }
func (t procTarget) CPUNow() sim.Duration    { return 0 }
func (t procTarget) SystemNow() sim.Duration { return 0 }

// worldComm returns a real communicator (id 1) without running anything.
func worldComm(t *testing.T) *mpi.Comm {
	t.Helper()
	w := mpi.NewWorld(sim.NewEngine(1), cluster.DefaultSpec(1, 2), mpi.NewImpl(mpi.LAM))
	w.Register("p", func(*mpi.Rank, []string) {})
	c, err := w.LaunchN("p", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	fnSend  = &probe.Function{Name: "MPI_Send", Module: "libmpi"}
	fnOuter = &probe.Function{Name: "outer", Module: "app.c"}
)

// Every statement and expression form, through the compiled path. Each case
// is the probe list of metric m over MPI_Send (a bare snippet is wrapped as
// one append-at-entry probe); MPI_Send is then called once, from inside
// outer, with (NULL, 8, MPI_INT, 1, 7, comm-1, "name", 0), and m must read
// want.
func TestCompiledSnippetSemantics(t *testing.T) {
	comm := worldComm(t)
	args := []probe.Arg{{}, {Int: 8}, {Int: int(mpi.Int), Ref: mpi.Int}, {Int: 1}, {Int: 7}, {Ref: comm}, {Ref: "name"}, {}}
	const msgFocus = "/SyncObject/Message/comm-1"
	for _, c := range []struct {
		name, probes string
		focus        resource.Focus
		want         float64
	}{
		{name: "increment", probes: `m++; m++;`, want: 2},
		{name: "add-assign", probes: `m += 3; m += 4;`, want: 7},
		{name: "assign", probes: `m = 5; m = 2;`, want: 2},
		{name: "auxiliary counter", probes: `aux = 6; m = aux + aux;`, want: 12},
		{name: "precedence of + and *", probes: `m = 2 + 3 * 4;`, want: 14},
		{name: "parentheses", probes: `m = (2 + 3) * 4;`, want: 20},
		{name: "if true", probes: `if (1) m++;`, want: 1},
		{name: "if false", probes: `if (0) m++;`, want: 0},
		{name: "if on a string", probes: `if ("x") m++; if ("") m += 10;`, want: 1},
		{name: "if on an object", probes: `if ($arg[5]) m++; if ($arg[0]) m += 10;`, want: 1},
		{name: "if on an integer", probes: `if ($arg[4]) m++; if ($arg[7]) m += 10;`, want: 1},
		{name: "if on a datatype", probes: `if ($arg[2]) m++;`, want: 1},
		{name: "==", probes: `if (2 == 2) m++; if (2 == 3) m += 10;`, want: 1},
		{name: "!=", probes: `if (2 != 3) m++; if (2 != 2) m += 10;`, want: 1},
		{name: ">", probes: `if (3 > 2) m++; if (2 > 2) m += 10;`, want: 1},
		{name: "<", probes: `if (2 < 3) m++; if (2 < 2) m += 10;`, want: 1},
		{name: ">=", probes: `if (2 >= 2) m++; if (1 >= 2) m += 10;`, want: 1},
		{name: "<=", probes: `if (2 <= 2) m++; if (3 <= 2) m += 10;`, want: 1},
		{name: "comparison as a number", probes: `m = (2 < 3) + (2 > 3) + (1 == 1);`, want: 2},
		{name: "string == string", probes: `if ("a" == "a") m++; if ("a" == "b") m += 10;`, want: 1},
		{name: "string == number is false", probes: `if ("1" == 1) m += 10; if (1 == "1") m += 10; if ("1" != 1) m++;`, want: 1},
		{name: "string in arithmetic is 0", probes: `m = "7" + 1;`, want: 1},
		{name: "$arg in range", probes: `m = $arg[1] * $arg[4];`, want: 56},
		{name: "$arg out of range is nil", probes: `m = $arg[9] + 1; if ($arg[9]) m += 10;`, want: 1},
		{name: "$arg == number", probes: `if ($arg[4] == 7) m++; if (7 == $arg[4]) m++; if ($arg[4] == 8) m += 10; if ($arg[6] == 0) m += 10;`, want: 2},
		{name: "$arg == string", probes: `if ($arg[6] == "name") m++; if ("name" == $arg[6]) m++; if ($arg[4] == "7") m += 10;`, want: 2},
		{name: "$arg == $arg", probes: `if ($arg[1] == $arg[1]) m++; if ($arg[6] == $arg[6]) m++; if ($arg[6] == $arg[1]) m += 10; if ($arg[1] == $arg[6]) m += 10;`, want: 2},
		{name: "datatype as a number", probes: `m = $arg[2];`, want: float64(int(mpi.Int))},
		{name: "$constraint out of range is empty", probes: `if ($constraint[0] == "") m++; if ($constraint[3] == "") m++;`, want: 2},
		{name: "MPI_Type_size statement", probes: `MPI_Type_size($arg[2], &aux); m = aux * $arg[1];`, want: 32},
		{name: "MPI_Type_size value", probes: `m = MPI_Type_size($arg[2]);`, want: 4},
		{name: "MPI_Type_size of nil and of a non-datatype", probes: `m = 1 + MPI_Type_size($arg[0]) + MPI_Type_size($arg[1]) + MPI_Type_size(4);`, want: 1},
		{name: "DYNINSTComm_FindId", probes: `if (DYNINSTComm_FindId($arg[5]) == "comm-1") m++; if (DYNINSTComm_FindId($arg[5]) == "comm-2") m += 10;`, want: 1},
		{name: "DYNINSTComm_FindId of nil and of a non-communicator", probes: `if (DYNINSTComm_FindId($arg[0]) == "") m++; if (DYNINSTComm_FindId($arg[4]) == "") m++; if (DYNINSTComm_FindId(1) == "") m++;`, want: 3},
		{name: "DYNINSTTagName", probes: `if (DYNINSTTagName($arg[4]) == "tag-7") m++; if (DYNINSTTagName(3 + 4) == "tag-7") m++; if (DYNINSTTagName($arg[4]) == "tag-8") m += 10;`, want: 2},
		{name: "DYNINSTTagName of nil and of a non-number", probes: `if (DYNINSTTagName($arg[0]) == "tag-0") m++; if (DYNINSTTagName($arg[6]) == "tag-0") m++;`, want: 2},
		{name: "DYNINSTWindow_FindUniqueId of nil and of a non-window", probes: `if (DYNINSTWindow_FindUniqueId($arg[0]) == "") m++; if (DYNINSTWindow_FindUniqueId($arg[5]) == "") m++; if (DYNINSTWindow_FindUniqueId("0-1") == "") m++;`, want: 3},
		{name: "prepend runs before append", want: 6, probes: `
			append preinsn func.entry (* m = m * 2; *)
			prepend preinsn func.entry (* m = m + 3; *)`},
		{name: "append keeps declaration order", want: 3, probes: `
			append preinsn func.entry (* m = m * 2; *)
			append preinsn func.entry (* m = m + 3; *)`},
		{name: "return point", want: 11, probes: `
			append preinsn func.entry (* m = 1; *)
			append preinsn func.return (* m += 10; *)`},
		{name: "constrained by a flag that is set", focus: resource.WholeProgram().WithSync(msgFocus), want: 1, probes: `
			append preinsn func.entry constrained (* m++; *)`},
		{name: "constrained by a flag that stays clear", focus: resource.WholeProgram().WithSync("/SyncObject/Message/comm-9"), want: 0, probes: `
			append preinsn func.entry constrained (* m++; *)`},
		{name: "unconstrained block ignores the flag", focus: resource.WholeProgram().WithSync("/SyncObject/Message/comm-9"), want: 1, probes: `
			append preinsn func.entry (* m++; *)`},
		{name: "constrained by a procedure on the stack", focus: resource.WholeProgram().WithCode("/Code/app.c/outer"), want: 1, probes: `
			append preinsn func.entry constrained (* m++; *)`},
		{name: "constrained by a procedure not on the stack", focus: resource.WholeProgram().WithCode("/Code/app.c/elsewhere"), want: 0, probes: `
			append preinsn func.entry constrained (* m++; *)`},
		{name: "constrained by a module on the stack", focus: resource.WholeProgram().WithCode("/Code/app.c"), want: 1, probes: `
			append preinsn func.entry constrained (* m++; *)`},
		{name: "constrained by a sync category the call is not in", focus: resource.WholeProgram().WithSync("/SyncObject/Barrier"), want: 0, probes: `
			append preinsn func.entry constrained (* m++; *)`},
	} {
		probes := c.probes
		if len(probes) > 0 && probes[0] != '\n' {
			probes = `append preinsn func.entry (* ` + probes + ` *)`
		}
		lib, err := CompileSource(`
resourceList sends is procedure { "MPI_Send" };
constraint onComm /SyncObject/Message is counter {
    foreach func in sends {
        prepend preinsn func.entry (* if (DYNINSTComm_FindId($arg[5]) == $constraint[0]) onComm = 1; *)
        append preinsn func.return (* onComm = 0; *)
    }
}
metric m {
    name "m"; units ops; counter aux;
    constraint procedureConstraint; constraint moduleConstraint; constraint onComm;
    base is counter { foreach func in sends { ` + probes + ` } }
}`)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		focus := c.focus
		if focus == (resource.Focus{}) {
			focus = resource.WholeProgram()
		}
		p := probe.NewProcess("p", zeroClock{})
		in, err := lib.Metric("m").Instantiate(procTarget{p}, focus)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		p.Enter(fnOuter)
		p.Enter(fnSend, args...)
		p.Leave(fnSend)
		p.Leave(fnOuter)
		if got := in.Acc.Sample(0, 0); got != c.want {
			t.Errorf("%s: m = %v, want %v\n%s", c.name, got, c.want, probes)
		}
	}
}

// The allocation budget of instrumented execution: MPI_Send entered and left
// with the three metrics the Consultant's message refinement keeps on it,
// each instantiated whole-program and under a communicator-and-tag focus.
func TestInstrumentedCallAllocatesNothing(t *testing.T) {
	comm := worldComm(t)
	p := probe.NewProcess("p", zeroClock{})
	hit := resource.WholeProgram().WithSync("/SyncObject/Message/comm-1/tag-7")
	miss := resource.WholeProgram().WithSync("/SyncObject/Message/comm-1/tag-8")
	var sent [3]*Instance
	for _, name := range []string{"msgs_sent", "msg_bytes_sent", "sync_wait_inclusive"} {
		for i, f := range []resource.Focus{resource.WholeProgram(), hit, miss} {
			in, err := StdLib().Metric(name).Instantiate(procTarget{p}, f)
			if err != nil {
				t.Fatal(err)
			}
			if name == "msgs_sent" {
				sent[i] = in
			}
		}
	}
	call := func() {
		p.Enter(fnSend, probe.Arg{}, probe.Arg{Int: 8}, probe.Arg{Int: int(mpi.Byte), Ref: mpi.Byte}, probe.Arg{Int: 1}, probe.Arg{Int: 7}, probe.Arg{Ref: comm})
		p.Leave(fnSend)
	}
	call()
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Errorf("instrumented MPI_Send: %v allocs per call, want 0", n)
	}
	for i, want := range []float64{202, 202, 0} {
		if got := sent[i].Acc.Sample(0, 0); got != want {
			t.Errorf("msgs_sent instance %d counted %v of 202 calls, want %v", i, got, want)
		}
	}
	if p.Executions == 0 {
		t.Error("no probe executed")
	}
}

// The allocation budget of the enable path: the six pairs the Consultant's
// message refinement keeps on MPI_Send — three metrics, whole-program and
// under a communicator-and-tag focus — instantiated on one process and
// removed again. Each probe spec is one probe.Code since Compile, run
// against the instance's frame, and one set record per spec, so what is
// left is the instances with their frames, counters and probe IDs, the
// constraint frames and their flags, and the SyncObject path's split: 40
// objects, the same under the race detector, which make race runs this
// with. It was 79 while each spec bound a closure to the frame, 136 before
// the frame moved into the instance and the native constraints became its
// fields, and compiling the snippets per instance cost 422.
func TestInstantiateAllocationBudget(t *testing.T) {
	p := probe.NewProcess("p", zeroClock{})
	hit := resource.WholeProgram().WithSync("/SyncObject/Message/comm-1/tag-7")
	six := func() {
		var ins [6]*Instance
		for i, name := range []string{"msgs_sent", "msg_bytes_sent", "sync_wait_inclusive"} {
			for j, f := range []resource.Focus{resource.WholeProgram(), hit} {
				in, err := StdLib().Metric(name).Instantiate(procTarget{p}, f)
				if err != nil {
					t.Fatal(err)
				}
				ins[2*i+j] = in
			}
		}
		for _, in := range ins {
			in.Remove()
		}
	}
	six()
	if n := testing.AllocsPerRun(100, six); n > 40 {
		t.Errorf("six Instantiate + Remove pairs: %v allocs, want at most 40", n)
	}
	if p.ActiveProbes() != 0 {
		t.Errorf("%d probes left after Remove", p.ActiveProbes())
	}
}

// The cost of the Consultant's first test of a hypothesis on a process:
// sync_wait_inclusive enabled on /SyncObject/Message — its foreach names the
// category's seven functions and their PMPI_ twins, none called yet — on a
// fresh process, then removed. With one record per spec waiting for the
// functions' first calls it is 27 objects and 15 416 bytes, the same under
// the race detector (the bytes are averaged over 400 enables, and other
// goroutines' allocations can add a few); with a record per (function,
// spec) and a closure per (spec, frame) it was 91 and 17 032.
func TestEnableOnAFreshProcessBudget(t *testing.T) {
	f := resource.WholeProgram().WithSync("/SyncObject/Message")
	var procs [501]*probe.Process
	for i := range procs {
		procs[i] = probe.NewProcess("p", zeroClock{})
	}
	i := 0
	enable := func() {
		p := procs[i]
		i++
		in, err := StdLib().Metric("sync_wait_inclusive").Instantiate(procTarget{p}, f)
		if err != nil {
			t.Fatal(err)
		}
		in.Remove()
		if p.ActiveProbes() != 0 {
			t.Fatalf("%d probes left after Remove", p.ActiveProbes())
		}
	}
	if n := testing.AllocsPerRun(100, enable); n > 27 {
		t.Errorf("enable + disable on a fresh process: %v allocs, want at most 27", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := len(procs) - i
	for i < len(procs) {
		enable()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / uint64(n); b > 15416+16 {
		t.Errorf("enable + disable on a fresh process: %d bytes, want at most 15 416 (+16 for the runtime's own)", b)
	}
}
