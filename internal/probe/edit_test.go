package probe

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Edits made from inside a running handler loop do not disturb it: the loop
// finishes the list it started with — a probe removed mid-fire still runs
// this once, a probe inserted mid-fire does not run yet — and the next
// execution of the point sees every edit. This is what the copy-on-write
// lists did for every edit; the in-place lists must do it for the edits that
// arrive while the process is inside fire.
func TestEditsInsideFireKeepTheRunningSnapshot(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	f, g := &Function{Name: "f"}, &Function{Name: "g"}
	var seq []string
	note := func(s string) Handler { return func(*Event) { seq = append(seq, s) } }
	var a, c, d, e ID
	a = p.Insert("f", Entry, Append, func(*Event) {
		seq = append(seq, "a")
		p.Remove(a) // removes itself
	})
	p.Insert("f", Entry, Append, func(*Event) {
		seq = append(seq, "b")
		p.Remove(c) // the next probe
		p.Remove(e) // the last probe
	})
	c = p.Insert("f", Entry, Append, note("c"))
	d = p.Insert("f", Entry, Append, func(*Event) {
		seq = append(seq, "d")
		p.Insert("f", Entry, Prepend, note("first"))
		p.Insert("f", Entry, Append, note("last"))
		p.Remove(d)
		// A nested traced call fires another point, whose handler edits the
		// list the outer loop is still running over.
		p.Enter(g)
		p.Leave(g)
	})
	e = p.Insert("f", Entry, Append, note("e"))
	p.Insert("g", Entry, Append, func(*Event) {
		seq = append(seq, "g")
		p.Insert("f", Entry, Prepend, note("nested"))
	})

	p.Enter(f)
	p.Leave(f)
	if want := []string{"a", "b", "c", "d", "g", "e"}; !slices.Equal(seq, want) {
		t.Errorf("first execution ran %v, want the snapshot %v", seq, want)
	}
	if p.firing != 0 {
		t.Fatalf("firing depth %d after the calls returned", p.firing)
	}
	seq = nil
	p.Enter(f)
	p.Leave(f)
	if want := []string{"nested", "first", "b", "last"}; !slices.Equal(seq, want) {
		t.Errorf("second execution ran %v, want every edit applied: %v", seq, want)
	}
	if p.ActiveProbes() != 5 { // nested, first, b, last on f; one on g
		t.Errorf("ActiveProbes = %d, want 5", p.ActiveProbes())
	}
}

// Property: 1 000 random steps — append, prepend, remove, and executions of
// the point during which one handler makes a further random edit — against
// a plain slice model. Every execution runs exactly the model's list as it
// stood when the execution began, in order.
func TestInPlaceEditsMatchSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := NewProcess("p0", &fakeClock{})
	f := &Function{Name: "f"}
	var (
		model []ID // the probe list, in execution order
		ran   []ID
		edit  func() // a pending edit the next handler to run performs
	)
	insert := func(ord Order) {
		var id ID
		id = p.Insert("f", Entry, ord, func(*Event) {
			ran = append(ran, id)
			if edit != nil {
				e := edit
				edit = nil
				e()
			}
		})
		if ord == Prepend {
			model = slices.Insert(model, 0, id)
		} else {
			model = append(model, id)
		}
	}
	remove := func() {
		if len(model) == 0 {
			return
		}
		i := rng.Intn(len(model))
		p.Remove(model[i])
		model = slices.Delete(model, i, i+1)
	}
	randomEdit := func() {
		switch rng.Intn(3) {
		case 0:
			insert(Append)
		case 1:
			insert(Prepend)
		default:
			remove()
		}
	}
	for step := 0; step < 1000; step++ {
		if rng.Intn(4) != 0 {
			randomEdit()
			continue
		}
		want := slices.Clone(model)
		if rng.Intn(2) == 0 {
			edit = randomEdit
		}
		ran = nil
		p.Enter(f)
		p.Leave(f)
		if !slices.Equal(ran, want) {
			t.Fatalf("step %d: execution ran %v, model held %v", step, ran, want)
		}
		edit = nil
	}
	if p.ActiveProbes() != len(model) {
		t.Errorf("ActiveProbes = %d, model holds %d", p.ActiveProbes(), len(model))
	}
}

// An ID finds its probe through the function slot it carries; one that names
// no inserted probe of this process — never issued, already removed, or
// from a process with more functions — removes nothing.
func TestRemoveOfUnknownIDIsANoOp(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	other := NewProcess("p1", &fakeClock{})
	runs := 0
	h := func(*Event) { runs++ }
	f := p.Insert("f", Entry, Append, h)
	g := p.Insert("g", Return, Prepend, h)
	other.Insert("a", Entry, Append, h)
	other.Insert("b", Entry, Append, h)
	foreign := other.Insert("c", Entry, Append, h)
	p.Remove(f)
	for _, id := range []ID{f, 0, -1, g + 1<<slotBits, g + 1, foreign} {
		p.Remove(id)
	}
	if p.ActiveProbes() != 1 || other.ActiveProbes() != 3 {
		t.Fatalf("ActiveProbes = %d and %d, want 1 and 3", p.ActiveProbes(), other.ActiveProbes())
	}
	p.Enter(&Function{Name: "g"})
	p.Leave(p.Stack()[0])
	if runs != 1 {
		t.Errorf("g's probe ran %d times, want once", runs)
	}
	if s := p.String(); s != "probe.Process(p0, 1 probes)" {
		t.Errorf("String = %q", s)
	}
}

// The allocation budget of the Consultant's enable/disable traffic: editing
// a point that already holds 64 probes costs nothing, at either end — on a
// function the process has called, where the probes are placed, and on one
// it has not, where they wait for the first call — and so does a set probe
// over four functions of either kind.
func TestInsertRemoveAllocateNothing(t *testing.T) {
	h := func(*Event) {}
	code := func(any, *Event) {}
	fns := []string{"f", "g", "h", "i"}
	for _, called := range []bool{false, true} {
		p := NewProcess("p0", &fakeClock{})
		if called {
			for _, fn := range fns {
				f := &Function{Name: fn}
				p.Enter(f)
				p.Leave(f)
			}
		}
		for i := 0; i < 64; i++ {
			p.Insert("f", Entry, Append, h)
		}
		for _, ord := range []Order{Append, Prepend} {
			if n := testing.AllocsPerRun(200, func() { p.Remove(p.Insert("f", Entry, ord, h)) }); n != 0 {
				t.Errorf("called=%v: Remove(Insert(order %d)) on a 64-probe list: %v allocs, want 0", called, ord, n)
			}
			if n := testing.AllocsPerRun(200, func() { p.Remove(p.InsertSet(fns, Return, ord, code, p)) }); n != 0 {
				t.Errorf("called=%v: Remove(InsertSet(order %d)) over four functions: %v allocs, want 0", called, ord, n)
			}
		}
		if p.ActiveProbes() != 64 {
			t.Errorf("called=%v: ActiveProbes = %d, want 64", called, p.ActiveProbes())
		}
	}
}

// A point keeps the backing array it grew: once it has held n probes,
// inserting n more (at either end) and removing them again allocates
// nothing — below the first capacity and above it, on a function the process
// instrumented before, whether it has called it (the probes are placed) or
// not (they wait in the process's set records).
func TestRefillToPeakAllocatesNothing(t *testing.T) {
	h := func(*Event) {}
	for _, called := range []bool{false, true} {
		for _, n := range []int{1, firstCap, firstCap + 1, 100} {
			p := NewProcess("p0", &fakeClock{})
			if called {
				f := &Function{Name: "f"}
				p.Enter(f)
				p.Leave(f)
			}
			ids := make([]ID, n)
			fill := func() {
				for i := range ids {
					ids[i] = p.Insert("f", Entry, Order(i%2), h)
				}
				for _, id := range ids {
					p.Remove(id)
				}
			}
			fill()
			if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
				t.Errorf("called=%v: refilling a point to its peak of %d probes: %v allocs, want 0", called, n, allocs)
			}
			if p.ActiveProbes() != 0 {
				t.Errorf("called=%v: ActiveProbes = %d after removing all %d", called, p.ActiveProbes(), n)
			}
		}
	}
}

// eagerModel drives a Process with a stream of operations — Insert,
// InsertSet, Remove, a call of a function (its first or a repeat), and an
// edit armed for the next handler to run, which may itself be a nested call
// — and checks it against a model that places every probe on all its
// functions at once: every execution runs exactly the model's list for that
// point as it stood when the execution began, in order, and ActiveProbes is
// the model's count.
type eagerModel struct {
	p     *Process
	funcs []*Function
	lists map[string]*[2][]int // function → its Entry and Return lists, as tokens
	ids   map[int]ID           // live token → its probe
	fns   map[int][]string     // live token → its functions
	live  []int                // live tokens, in insertion order
	next  int
	runs  [][]int // what each execution in progress has run so far
	armed func()  // the edit the next handler to run performs
	err   error
}

func newEagerModel(nfuncs int) *eagerModel {
	m := &eagerModel{
		p:     NewProcess("p0", &fakeClock{}),
		lists: map[string]*[2][]int{},
		ids:   map[int]ID{},
		fns:   map[int][]string{},
	}
	for i := 0; i < nfuncs; i++ {
		f := &Function{Name: fmt.Sprintf("f%d", i)}
		m.funcs = append(m.funcs, f)
		m.lists[f.Name] = &[2][]int{}
	}
	return m
}

// ran notes the token's execution, then performs the armed edit, if any.
func (m *eagerModel) ran(tok int) {
	if len(m.runs) == 0 {
		m.fail("probe %d ran outside any execution", tok)
		return
	}
	m.runs[len(m.runs)-1] = append(m.runs[len(m.runs)-1], tok)
	if e := m.armed; e != nil {
		m.armed = nil
		e()
	}
}

func (m *eagerModel) fail(format string, a ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, a...)
	}
}

func (m *eagerModel) insert(fns []string, w Where, ord Order, set bool) {
	tok := m.next
	m.next++
	if set {
		m.ids[tok] = m.p.InsertSet(fns, w, ord, func(arg any, _ *Event) { m.ran(arg.(int)) }, tok)
	} else {
		m.ids[tok] = m.p.Insert(fns[0], w, ord, func(*Event) { m.ran(tok) })
	}
	m.fns[tok] = fns
	m.live = append(m.live, tok)
	for _, fn := range fns {
		l := &m.lists[fn][w]
		if ord == Prepend {
			*l = slices.Insert(*l, 0, tok)
		} else {
			*l = append(*l, tok)
		}
	}
}

func (m *eagerModel) remove(i int) {
	if len(m.live) == 0 {
		return
	}
	i %= len(m.live)
	tok := m.live[i]
	m.p.Remove(m.ids[tok])
	m.live = slices.Delete(m.live, i, i+1)
	for _, fn := range m.fns[tok] {
		for w := range m.lists[fn] {
			m.lists[fn][w] = slices.DeleteFunc(m.lists[fn][w], func(t int) bool { return t == tok })
		}
	}
	delete(m.ids, tok)
	delete(m.fns, tok)
}

// call enters and leaves f, checking what each point ran.
func (m *eagerModel) call(f *Function) {
	point := func(w Where, do func()) {
		want := slices.Clone(m.lists[f.Name][w])
		m.runs = append(m.runs, nil)
		do()
		got := m.runs[len(m.runs)-1]
		m.runs = m.runs[:len(m.runs)-1]
		if !slices.Equal(got, want) {
			m.fail("%s.%v ran %v, the eager model held %v", f.Name, w, got, want)
		}
	}
	point(Entry, func() { m.p.Enter(f) })
	point(Return, func() { m.p.Leave(f) })
}

// step decodes one operation from ops and returns it with the bytes left.
func (m *eagerModel) step(ops []byte) (func(), []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	op, arg := next()%5, next()
	w, ord := Where(arg&1), Order(arg>>1&1)
	switch op {
	case 0:
		fn := m.funcs[arg>>2%len(m.funcs)].Name
		return func() { m.insert([]string{fn}, w, ord, false) }, ops
	case 1: // up to three functions, a repeat possible
		var fns []string
		for i := arg >> 2 % 4; i > 0; i-- {
			fns = append(fns, m.funcs[next()%len(m.funcs)].Name)
		}
		return func() { m.insert(fns, w, ord, true) }, ops
	case 2:
		return func() { m.remove(arg) }, ops
	case 3:
		f := m.funcs[arg%len(m.funcs)]
		return func() { m.call(f) }, ops
	}
	var armed func()
	armed, ops = m.step(ops)
	return func() { m.armed = armed }, ops
}

// run applies the operations ops encodes, then checks the probe count.
func (m *eagerModel) run(ops []byte) error {
	for len(ops) > 0 && m.err == nil {
		var op func()
		op, ops = m.step(ops)
		op()
	}
	n := 0
	for _, fns := range m.fns {
		n += len(fns)
	}
	if m.err == nil && m.p.ActiveProbes() != n {
		m.fail("ActiveProbes = %d, the eager model holds %d", m.p.ActiveProbes(), n)
	}
	return m.err
}

// Property: random operation streams — probes inserted singly and as sets
// before and after their functions' first calls, removed, and edited from
// inside running handlers, including nested first calls — run exactly what
// placing every probe at once would have, so deferring placement to the
// first call is invisible.
func TestDeferredPlacementMatchesEagerModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for run := 0; run < 200; run++ {
		ops := make([]byte, 40+rng.Intn(400))
		rng.Read(ops)
		if err := newEagerModel(3 + run%6).run(ops); err != nil {
			t.Fatalf("run %d (ops %x): %v", run, ops, err)
		}
	}
}

// FuzzProbeEdits holds any operation stream to the eager model.
func FuzzProbeEdits(f *testing.F) {
	f.Add([]byte{1, 0, 0xff, 3, 0, 0, 6, 3, 0, 4, 2, 0, 3, 1})
	f.Add([]byte{0, 1, 4, 1, 0, 0xff, 4, 3, 1, 3, 0, 4, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := newEagerModel(4).run(ops); err != nil {
			t.Fatal(err)
		}
	})
}
