package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// orderProbe is a typed Target for the ordering property: firing logs its
// id and, sometimes, schedules more events from event context.
type orderProbe struct {
	id int
	h  *orderHarness
}

func (o *orderProbe) Fire() { o.h.fired(o.id) }

// orderHarness schedules a random mix of func() and typed-Target events and
// remembers, for each, the time it is due and the order it was scheduled in.
type orderHarness struct {
	e       *Engine
	rng     *rand.Rand
	horizon Time
	due     []Time // by event id == scheduling order
	got     []int
}

// schedule adds one event at a random time drawn from a range small enough
// that collisions are the norm, through At or Schedule at random.
func (h *orderHarness) schedule() {
	t := Time(h.rng.Intn(40)) * Time(Microsecond)
	id := len(h.due)
	eff := t
	if eff < h.e.now { // the engine clamps events to "not in the past"
		eff = h.e.now
	}
	if eff >= h.horizon {
		return
	}
	h.due = append(h.due, eff)
	if h.rng.Intn(2) == 0 {
		h.e.At(t, func() { h.fired(id) })
	} else {
		h.e.Schedule(t, &orderProbe{id: id, h: h})
	}
}

func (h *orderHarness) fired(id int) {
	h.got = append(h.got, id)
	if h.e.now != h.due[id] {
		panic("event fired at the wrong time")
	}
	for h.rng.Intn(3) == 0 { // event context schedules more
		h.schedule()
	}
}

// Events fire in exactly (time, scheduling order), whoever scheduled them —
// a process or another event — and whichever entry point they came through.
func TestEventsFireInTimeThenSchedulingOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e := NewEngine(1)
		h := &orderHarness{e: e, rng: rand.New(rand.NewSource(seed)), horizon: Time(60 * Microsecond)}
		for i := 0; i < 50; i++ {
			h.schedule()
		}
		e.StartProc("scheduler", func(p *Proc) { // process context, interleaved with firing
			for p.Now() < h.horizon {
				for i := h.rng.Intn(4); i > 0; i-- {
					h.schedule()
				}
				p.Sleep(Duration(h.rng.Intn(3)) * Microsecond)
			}
			p.Sleep(Microsecond) // outlast every event due before the horizon
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(h.due))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return h.due[want[i]] < h.due[want[j]] })
		if len(h.got) != len(want) {
			t.Fatalf("seed %d: %d of %d events fired", seed, len(h.got), len(want))
		}
		for i := range want {
			if h.got[i] != want[i] {
				t.Fatalf("seed %d: firing order diverges at %d: got event %d (due %v), want %d (due %v)",
					seed, i, h.got[i], h.due[h.got[i]], want[i], h.due[want[i]])
			}
		}
	}
}

// countTarget is the cheapest typed Target: it counts its firings.
type countTarget int

func (c *countTarget) Fire() { *c++ }

// Scheduling an event, firing it and a process's Sleep round trip are the
// simulator's per-message steps: none of them may allocate, through either
// entry point. Nor may a ticker's firing, the tool's per-interval step.
func TestSchedulingAndSleepAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	var perFunc, perTarget, perSleep, perTick float64
	e.StartProc("p", func(p *Proc) {
		funcFired, typedFired := 0, new(countTarget)
		tick := func() { funcFired++ }
		viaFunc := func() {
			e.After(Microsecond, tick)
			p.Sleep(2 * Microsecond)
		}
		viaTarget := func() {
			e.Schedule(p.Now().Add(Microsecond), typedFired)
			p.Sleep(2 * Microsecond)
		}
		viaFunc() // grow the queue once
		perFunc = testing.AllocsPerRun(200, viaFunc)
		perTarget = testing.AllocsPerRun(200, viaTarget)
		perSleep = testing.AllocsPerRun(200, func() { p.Sleep(Microsecond) })
		if funcFired != 202 || *typedFired != 201 {
			t.Errorf("fired %d func and %d typed events, want 202 and 201", funcFired, *typedFired)
		}
		ticks := 0
		e.Every(Microsecond, func() { ticks++ })
		perTick = testing.AllocsPerRun(200, func() { p.Sleep(Microsecond) })
		if ticks != 201 {
			t.Errorf("ticker fired %d times, want 201", ticks)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if perFunc != 0 || perTarget != 0 {
		t.Errorf("schedule + fire: %v allocs through After, %v through Schedule, want 0", perFunc, perTarget)
	}
	if perSleep != 0 || perTick != 0 {
		t.Errorf("Proc.Sleep: %v allocs, %v with a ticker firing meanwhile, want 0", perSleep, perTick)
	}
}
