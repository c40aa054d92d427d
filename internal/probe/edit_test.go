package probe

import (
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
// a point that already holds 64 probes costs nothing, at either end.
func TestInsertRemoveAllocateNothing(t *testing.T) {
	p := NewProcess("p0", &fakeClock{})
	h := func(*Event) {}
	for i := 0; i < 64; i++ {
		p.Insert("f", Entry, Append, h)
	}
	for _, ord := range []Order{Append, Prepend} {
		if n := testing.AllocsPerRun(200, func() { p.Remove(p.Insert("f", Entry, ord, h)) }); n != 0 {
			t.Errorf("Remove(Insert(order %d)) on a 64-probe list: %v allocs, want 0", ord, n)
		}
	}
	if p.ActiveProbes() != 64 {
		t.Errorf("ActiveProbes = %d, want 64", p.ActiveProbes())
	}
}

// A point keeps the backing array it grew: once it has held n probes,
// inserting n more (at either end) and removing them again allocates
// nothing — below the first capacity and above it, on a function the process
// instrumented before.
func TestRefillToPeakAllocatesNothing(t *testing.T) {
	h := func(*Event) {}
	for _, n := range []int{1, firstCap, firstCap + 1, 100} {
		p := NewProcess("p0", &fakeClock{})
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
			t.Errorf("refilling a point to its peak of %d probes: %v allocs, want 0", n, allocs)
		}
		if p.ActiveProbes() != 0 {
			t.Errorf("ActiveProbes = %d after removing all %d", p.ActiveProbes(), n)
		}
	}
}
