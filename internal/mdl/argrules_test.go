package mdl

import (
	"fmt"
	"strconv"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/mpi"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// How the MDL read a probe argument while the probe layer carried each as an
// `any` — the reference the typed reads of $arg[n] are held to. anyNum,
// anyTruthy, anyEqual and anyTypeSize are that time's asNum, truthy,
// equalVals and typeSize.

func anyNum(v any) float64 {
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

func anyTruthy(v any) bool {
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

func anyEqual(l, r any) bool {
	if ls, ok := l.(string); ok {
		rs, ok2 := r.(string)
		return ok2 && ls == rs
	}
	if _, ok := r.(string); ok {
		return false
	}
	return anyNum(l) == anyNum(r)
}

func anyTypeSize(v any) float64 {
	if dt, ok := v.(mpi.Datatype); ok {
		return float64(dt.Size())
	}
	return 0
}

// fixedTruthy is anyTruthy with its one intended change: an integer or a
// datatype is true iff it is non-zero, as the number it reads as is.
func fixedTruthy(v any) bool {
	switch v.(type) {
	case int, int64, mpi.Datatype:
		return anyNum(v) != 0
	}
	return anyTruthy(v)
}

// anyOf is an argument as the `any` the call passed before arguments were
// typed, as far as those rules can tell: a NULL reads as the integer 0,
// which they read alike once fixedTruthy has the fix, and a buffer's address
// as the slice, which they read alike too.
func anyOf(a probe.Arg) any {
	if a.Ref != nil {
		return a.Ref
	}
	return a.Int
}

// The typed $arg reads against the `any` rules, kind by kind, for everything
// the MDL can observe of an argument: its number, its truth, == against
// numbers, strings and every other kind, MPI_Type_size as a value and as a
// statement, and the three name builtins. Each kind is a pair: what a call
// passed as an `any` and the probe.Arg it passes now. The one allowed
// difference is the truth of an integer or a datatype of 0.
func TestArgReadsMatchTheAnyRules(t *testing.T) {
	comm := worldComm(t)
	var win *mpi.Win
	w := mpi.NewWorld(sim.NewEngine(1), cluster.DefaultSpec(1, 1), mpi.NewImpl(mpi.LAM))
	w.Register("p", func(r *mpi.Rank, _ []string) { win, _ = r.World().WinCreate(r, 8, 1, nil) })
	if _, err := w.LaunchN("p", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Eng.Run(); err != nil || win == nil {
		t.Fatalf("no window: %v", err)
	}
	buf := []byte{1, 2}
	kinds := []struct {
		name string
		old  any
		arg  probe.Arg
	}{
		{"int 0", 0, probe.Arg{}},
		{"int 7", 7, probe.Arg{Int: 7}},
		{"int 300", 300, probe.Arg{Int: 300}},
		{"int -1", -1, probe.Arg{Int: -1}},
		{"datatype 0", mpi.Byte, probe.Arg{Int: int(mpi.Byte), Ref: mpi.Byte}},
		{"datatype", mpi.Double, probe.Arg{Int: int(mpi.Double), Ref: mpi.Double}},
		{"communicator", comm, probe.Arg{Ref: comm}},
		{"window", win, probe.Arg{Ref: win}},
		{"nil handle", nil, probe.Arg{}},
		{"nil communicator", (*mpi.Comm)(nil), probe.Arg{Ref: (*mpi.Comm)(nil)}},
		{"buffer address", buf, probe.Arg{Ref: &buf[0]}},
		{"nil buffer", nil, probe.Arg{}},
		{"string", "name", probe.Arg{Ref: "name"}},
		{"empty string", "", probe.Arg{Ref: ""}},
	}
	args := make([]probe.Arg, len(kinds))
	for i, k := range kinds {
		args[i] = k.arg
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for i, k := range kinds {
		a := fmt.Sprintf("$arg[%d]", i)
		comm, win := "", ""
		if c, ok := k.old.(*mpi.Comm); ok && c != nil {
			comm = "comm-" + strconv.Itoa(c.ID())
		}
		if w, ok := k.old.(*mpi.Win); ok {
			win = w.UniqueID()
		}
		checks := []struct {
			what string
			want float64
		}{
			{"m = " + a + ";", anyNum(k.old)},
			{"if (" + a + ") m = 1;", b2f(fixedTruthy(k.old))},
			{"m = MPI_Type_size(" + a + ");", anyTypeSize(k.old)},
			{"MPI_Type_size(" + a + ", &aux); m = aux;", anyTypeSize(k.old)},
			{`if (DYNINSTComm_FindId(` + a + `) == "` + comm + `") m = 1;`, 1},
			{`if (DYNINSTWindow_FindUniqueId(` + a + `) == "` + win + `") m = 1;`, 1},
			{`if (DYNINSTTagName(` + a + `) == "tag-` + strconv.Itoa(int(anyNum(k.old))) + `") m = 1;`, 1},
		}
		for _, n := range []float64{0, 7, 300} { // MDL has no negative literals; -1 is a kind
			checks = append(checks, struct {
				what string
				want float64
			}{fmt.Sprintf("if (%s == %v) m = 1;", a, n), b2f(anyEqual(k.old, n))})
		}
		for _, s := range []string{"name", ""} {
			checks = append(checks, struct {
				what string
				want float64
			}{fmt.Sprintf("if (%s == %q) m = 1;", a, s), b2f(anyEqual(k.old, s))})
		}
		for j, other := range kinds {
			checks = append(checks, struct {
				what string
				want float64
			}{fmt.Sprintf("if (%s == $arg[%d]) m = 1;", a, j), b2f(anyEqual(k.old, other.old))})
		}
		for _, c := range checks {
			if got := runSnippet(t, c.what, args); got != c.want {
				t.Errorf("%s: %s reads %v, want %v", k.name, c.what, got, c.want)
			}
		}
	}
}

// runSnippet compiles stmts as the entry probe of a counter metric m over
// MPI_Send (with an auxiliary counter aux), calls MPI_Send once with args on
// a fresh process and returns m.
func runSnippet(t *testing.T, stmts string, args []probe.Arg) float64 {
	t.Helper()
	lib, err := CompileSource(`
resourceList sends is procedure { "MPI_Send" };
metric m {
    name "m"; units ops; counter aux;
    base is counter { foreach func in sends { append preinsn func.entry (* ` + stmts + ` *) } }
}`)
	if err != nil {
		t.Fatalf("%s: %v", stmts, err)
	}
	p := probe.NewProcess("p", zeroClock{})
	in, err := lib.Metric("m").Instantiate(procTarget{p}, resource.WholeProgram())
	if err != nil {
		t.Fatalf("%s: %v", stmts, err)
	}
	p.Enter(fnSend, args...)
	p.Leave(fnSend)
	return in.Acc.Sample(0, 0)
}
