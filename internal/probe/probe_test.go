package probe

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pperf/internal/sim"
)

// fakeClock implements Clock for tests.
type fakeClock struct {
	now      sim.Time
	cpu      sim.Duration
	overhead sim.Duration
}

func (c *fakeClock) Now() sim.Time              { return c.now }
func (c *fakeClock) CPUTime() sim.Duration      { return c.cpu }
func (c *fakeClock) AddOverhead(d sim.Duration) { c.overhead += d }

var fSend = &Function{Name: "MPI_Send", Module: "libmpi"}
var fApp = &Function{Name: "Gsend_message", Module: "app.c"}

func TestInsertFireRemove(t *testing.T) {
	clk := &fakeClock{}
	p := NewProcess("p0", clk)
	count := 0
	id := p.Insert("MPI_Send", Entry, Append, func(ev *Event) { count++ })
	p.Enter(fSend, Arg{}, Arg{Int: 10})
	p.Leave(fSend)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	p.Remove(id)
	p.Enter(fSend)
	p.Leave(fSend)
	if count != 1 {
		t.Errorf("probe fired after removal")
	}
	if p.ActiveProbes() != 0 {
		t.Errorf("ActiveProbes = %d", p.ActiveProbes())
	}
}

func TestEntryAndReturnProbesSeparate(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	var seq []string
	p.Insert("f", Entry, Append, func(*Event) { seq = append(seq, "entry") })
	p.Insert("f", Return, Append, func(*Event) { seq = append(seq, "return") })
	f := &Function{Name: "f"}
	p.Enter(f)
	p.Leave(f)
	if len(seq) != 2 || seq[0] != "entry" || seq[1] != "return" {
		t.Errorf("seq = %v", seq)
	}
}

func TestPrependOrdering(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	var seq []int
	p.Insert("f", Entry, Append, func(*Event) { seq = append(seq, 1) })
	p.Insert("f", Entry, Append, func(*Event) { seq = append(seq, 2) })
	p.Insert("f", Entry, Prepend, func(*Event) { seq = append(seq, 0) })
	f := &Function{Name: "f"}
	p.Enter(f)
	if len(seq) != 3 || seq[0] != 0 || seq[1] != 1 || seq[2] != 2 {
		t.Errorf("seq = %v, want [0 1 2]", seq)
	}
}

func TestEventCarriesArgsAndTime(t *testing.T) {
	clk := &fakeClock{now: sim.Time(5 * sim.Second), cpu: 3 * sim.Second}
	p := NewProcess("p0", clk)
	var got *Event
	p.Insert("MPI_Send", Entry, Append, func(ev *Event) {
		e := *ev
		got = &e
	})
	p.Enter(fSend, Arg{Ref: "buf"}, Arg{Int: 42}, Arg{Int: 2, Ref: "MPI_INT"})
	if got == nil {
		t.Fatal("probe did not fire")
	}
	if got.Arg(1) != (Arg{Int: 42}) || got.Arg(2) != (Arg{Int: 2, Ref: "MPI_INT"}) {
		t.Errorf("args = %v", got.Args)
	}
	if got.Arg(99) != (Arg{}) || got.Arg(-1) != (Arg{}) {
		t.Error("out-of-range Arg should be the zero Arg")
	}
	if got.Time != sim.Time(5*sim.Second) || got.CPUTime != 3*sim.Second {
		t.Errorf("time=%v cpu=%v", got.Time, got.CPUTime)
	}
}

func TestCallStackAndInFunction(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	p.Enter(fApp)
	if !p.InFunction("Gsend_message") {
		t.Error("InFunction should see Gsend_message")
	}
	p.Enter(fSend)
	if len(p.stack) != 2 {
		t.Errorf("stack depth = %d", len(p.stack))
	}
	if !p.InFunction("Gsend_message") || !p.InFunction("MPI_Send") {
		t.Error("both functions should be on stack")
	}
	p.Leave(fSend)
	if p.InFunction("MPI_Send") {
		t.Error("MPI_Send should be popped")
	}
	p.Leave(fApp)
	if len(p.stack) != 0 {
		t.Error("stack should be empty")
	}
	if n := testing.AllocsPerRun(10, func() { p.FunctionsOfModule("libmpi") }); n != 1 {
		t.Errorf("FunctionsOfModule allocates %v objects, want its one slice", n)
	}
}

func TestCallEdges(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	for i := 0; i < 3; i++ { // repeated calls produce one edge
		p.Enter(fApp)
		p.Enter(fSend)
		p.Leave(fSend)
		p.Leave(fApp)
	}
	edges := p.CallEdges(0)
	if len(edges) != 1 || edges[0] != [2]string{"Gsend_message", "MPI_Send"} {
		t.Errorf("edges = %v", edges)
	}
	// A reader with a cursor gets only what is new since, sorted — whatever
	// order the calls came in — and nothing when nothing is.
	if got := p.CallEdges(1); got != nil {
		t.Errorf("edges past the cursor = %v, want none", got)
	}
	z, a := &Function{Name: "z"}, &Function{Name: "a"}
	p.Enter(fApp)
	for _, f := range []*Function{z, fSend, a, z} {
		p.Enter(f)
		p.Leave(f)
	}
	p.Leave(fApp)
	want := [][2]string{{"Gsend_message", "a"}, {"Gsend_message", "z"}}
	if got := p.CallEdges(1); !slices.Equal(got, want) {
		t.Errorf("edges past the cursor = %v, want %v", got, want)
	}
	if got := p.CallEdges(0); !slices.Equal(got, append(edges, want...)) { // 'M' sorts before 'a'
		t.Errorf("all edges = %v, want the three sorted", got)
	}
}

func TestFirstCallDiscovery(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	var discovered []string
	p.OnFirstCall = func(f *Function) { discovered = append(discovered, f.Name) }
	p.Enter(fApp)
	p.Enter(fSend)
	p.Leave(fSend)
	p.Enter(fSend)
	p.Leave(fSend)
	p.Leave(fApp)
	if len(discovered) != 2 {
		t.Errorf("discovered = %v, want each function once", discovered)
	}
}

func TestProbeOverheadCharged(t *testing.T) {
	clk := &fakeClock{}
	p := NewProcess("p0", clk)
	p.PerProbeCost = 100 * sim.Nanosecond
	p.Insert("f", Entry, Append, func(*Event) {})
	p.Insert("f", Entry, Append, func(*Event) {})
	f := &Function{Name: "f"}
	p.Enter(f)
	p.Leave(f)
	if clk.overhead != 200*sim.Nanosecond {
		t.Errorf("overhead = %v, want 200ns", clk.overhead)
	}
	if p.Executions != 2 {
		t.Errorf("executions = %d", p.Executions)
	}
}

func TestNoProbesNoOverhead(t *testing.T) {
	clk := &fakeClock{}
	p := NewProcess("p0", clk)
	p.PerProbeCost = 100 * sim.Nanosecond
	f := &Function{Name: "f"}
	p.Enter(f)
	p.Leave(f)
	if clk.overhead != 0 || p.Executions != 0 {
		t.Error("uninstrumented calls must be free")
	}
}

func TestRemoveUnknownIDIsNoop(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	p.Remove(ID(12345)) // must not panic
}

func TestInsertDuringRun(t *testing.T) {
	// Dynamic instrumentation: a probe inserted between calls takes effect
	// on the next call.
	p := NewProcess("p0", &fakeClock{})
	f := &Function{Name: "f"}
	count := 0
	p.Enter(f)
	p.Leave(f)
	p.Insert("f", Entry, Append, func(*Event) { count++ })
	p.Enter(f)
	p.Leave(f)
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

// Property: after any sequence of inserts and removes, ActiveProbes equals
// inserts minus removes, and firing runs exactly the live probes.
func TestPropertyInsertRemoveBalance(t *testing.T) {
	f := func(ops []bool) bool {
		p := NewProcess("p", &fakeClock{})
		fn := &Function{Name: "f"}
		var ids []ID
		live := 0
		for _, ins := range ops {
			if ins || len(ids) == 0 {
				ids = append(ids, p.Insert("f", Entry, Append, func(*Event) {}))
				live++
			} else {
				p.Remove(ids[0])
				ids = ids[1:]
				live--
			}
		}
		if p.ActiveProbes() != live {
			return false
		}
		before := p.Executions
		p.Enter(fn)
		return p.Executions-before == int64(live)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The call frame carries the argument vector from Enter to Leave: the return
// point sees what the call entered with plus the out-parameters SetArg
// filled in, nested calls keep their own vectors, and an unmatched Leave
// sees none.
func TestFrameCarriesArgsToReturn(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	var got []string
	record := func(ev *Event) {
		got = append(got, fmt.Sprint(ev.Func.Name, ".", ev.Where, " ", ev.Args))
	}
	for _, fn := range []string{fApp.Name, fSend.Name} {
		p.Insert(fn, Entry, Append, record)
		p.Insert(fn, Return, Append, record)
	}
	str := func(s string) Arg { return Arg{Ref: s} }
	p.Enter(fApp, str("outer"), Arg{})
	p.Enter(fSend, str("buf"), Arg{Int: 42}, Arg{})
	p.SetArg(2, str("handle"))
	p.SetArg(9, str("out of range")) // no-op
	p.Leave(fSend)
	p.SetArg(1, str("outer-out"))
	p.Leave(fApp)
	p.Leave(fApp)                           // not on the stack any more
	p.SetArg(0, str("no call in progress")) // no-op
	want := []string{
		"Gsend_message.entry [{0 outer} {0 <nil>}]",
		"MPI_Send.entry [{0 buf} {42 <nil>} {0 <nil>}]",
		"MPI_Send.return [{0 buf} {42 <nil>} {0 handle}]",
		"Gsend_message.return [{0 outer} {0 outer-out}]",
		"Gsend_message.return []",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("probe points saw\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// The allocation budget of a traced call: an argument vector of every kind —
// a buffer, a count and a tag of 256 or more, a datatype, a wildcard, a
// handle, a request array, a group, a NULL and a string — and a handler on
// each point, at a call depth the process has reached before. (Making an Arg
// of a string that is not a constant boxes it in the caller, which only the
// naming, file-open and spawn calls do.)
func TestEnterLeaveAllocateNothing(t *testing.T) {
	type datatype int
	p := NewProcess("p0", &fakeClock{})
	p.PerProbeCost = 100 * sim.Nanosecond
	sum := 0
	h := func(ev *Event) { sum += ev.Arg(1).Int }
	p.Insert("MPI_Send", Entry, Append, h)
	p.Insert("MPI_Send", Return, Append, h)
	comm := &struct{ id int }{1}
	buf, reqs, group := make([]byte, 64), []*struct{}{{}, {}}, []int{1, 2}
	args := []Arg{{Ref: &buf[0]}, {Int: 300}, {Int: 4, Ref: datatype(4)}, {Int: -1}, {Int: 1<<20 + 7},
		{Ref: comm}, {Ref: &reqs[0]}, {Ref: &group[0]}, {}, {Ref: strings.Repeat("x", 3)}}
	call := func() {
		p.Enter(fApp)
		p.Enter(fSend, args...)
		p.Leave(fSend)
		p.Leave(fApp)
	}
	call()
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Errorf("Enter/Leave with ten arguments and a handler per point: %v allocs, want 0", n)
	}
	if sum != 2*300*202 {
		t.Errorf("handlers saw %d, want %d", sum, 2*300*202)
	}
}
