package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The differential test runs seeded scripts on the engine and on refSched, a
// model of the scheduler the engine had before its agenda became one heap:
// ready processes found by a linear scan, events in a queue of their own, and
// the two merged by "the event goes first on a tie". Both must produce the
// same (time, actor) trace, step for step.

type opKind int

const (
	opNone  opKind = iota
	opSleep        // Sleep(d), d possibly 0
	opWait         // Wait until somebody wakes or kills the process
	opWake         // WakeAt(now+d) of process target
	opKill         // Kill of process target
	opStart        // StartProcAt(now+d) of the next unstarted body
	opEvent        // an event at now+d that logs itself, then does `then` to target
	opEvery        // a ticker of period d that stops itself after target firings (0: never)
)

type op struct {
	kind   opKind
	d      Duration
	target int
	then   opKind
}

// sched is what a script needs of a scheduler. Processes are named by start
// order; an index nobody has been started under yet is ignored.
type sched interface {
	clock() Time
	wake(k int, t Time)
	kill(k int)
	start(at Time)
	event(t Time, fire func())
	every(d Duration, fn func()) (stop func())
}

// script is the part of a run both schedulers share: the process bodies, the
// trace, and the meaning of every op that does not block.
type script struct {
	sched
	bodies [][]op
	trace  []string
	ids    int // events and tickers, numbered as they are created
}

func (s *script) log(who string) { s.trace = append(s.trace, fmt.Sprintf("%d %s", s.clock(), who)) }

func (s *script) act(o op) {
	now := s.clock()
	switch o.kind {
	case opWake:
		s.wake(o.target, now.Add(o.d))
	case opKill:
		s.kill(o.target)
	case opStart:
		s.start(now.Add(o.d))
	case opEvent:
		who := fmt.Sprint("ev", s.ids)
		s.ids++
		s.event(now.Add(o.d), func() {
			s.log(who)
			s.act(op{kind: o.then, target: o.target})
		})
	case opEvery:
		who := fmt.Sprint("tk", s.ids)
		s.ids++
		fired := 0
		var stop func()
		stop = s.every(o.d, func() {
			s.log(who)
			if fired++; fired == 1 { // due at the next firing's instant: must fire before it
				s.event(s.clock().Add(o.d), func() { s.log(who + " echo") })
			}
			if fired == o.target {
				stop()
			}
		})
	}
}

// --- the engine under test ---------------------------------------------------

type engineSched struct {
	e *Engine
	s *script
	// began marks the processes whose body has started; kills counts Kill
	// calls by what the victim was doing, so the test can tell its scripts
	// reached every case.
	began map[*Proc]bool
	kills map[string]int
}

func (w *engineSched) clock() Time { return w.e.Now() }

func (w *engineSched) wake(k int, t Time) {
	if k < len(w.e.procs) {
		w.e.procs[k].WakeAt(t)
	}
}

func (w *engineSched) kill(k int) {
	if k >= len(w.e.procs) {
		return
	}
	p := w.e.procs[k]
	switch {
	case p.killed:
	case p.state == stateWaiting:
		w.kills["waiting"]++
	case p.state == stateReady && !w.began[p]:
		w.kills["unstarted"]++
	case p.state == stateReady:
		w.kills["sleeping"]++
	}
	p.Kill("script")
}

func (w *engineSched) start(at Time) {
	k := len(w.e.procs)
	if k == len(w.s.bodies) {
		return
	}
	w.e.StartProcAt(fmt.Sprint("p", k), at, func(p *Proc) {
		w.began[p] = true
		defer func() { w.s.log(p.name + " exit") }()
		for pc, o := range w.s.bodies[k] {
			w.s.log(fmt.Sprint(p.name, ":", pc))
			switch o.kind {
			case opSleep:
				p.Sleep(o.d)
			case opWait:
				p.Wait("script")
			default:
				w.s.act(o)
			}
		}
	})
}

func (w *engineSched) event(t Time, fire func()) {
	if w.s.ids%2 == 0 { // both entry points
		w.e.At(t, fire)
	} else {
		w.e.Schedule(t, funcTarget(fire))
	}
}

func (w *engineSched) every(d Duration, fn func()) func() { return w.e.Every(d, fn).Stop }

// --- the reference -----------------------------------------------------------

type refProc struct {
	name     string
	body     []op
	pc       int
	now      Time
	readyAt  Time
	readySeq uint64
	state    procState
	killed   bool
	began    bool // dispatched at least once before any Kill: its body's exit is logged
}

type refEvent struct {
	at     Time
	seq    uint64
	ticker bool
	fire   func()
}

type refSched struct {
	s     *script
	now   Time
	seq   uint64
	cur   *refProc
	procs []*refProc
	evq   []refEvent // unordered; the earliest is found by scanning
	live  int
}

func (r *refSched) clock() Time {
	if r.cur != nil {
		return r.cur.now
	}
	return r.now
}

func (r *refSched) wake(k int, t Time) {
	if k >= len(r.procs) || r.procs[k].state != stateWaiting {
		return
	}
	p := r.procs[k]
	if t < p.now {
		t = p.now
	}
	r.seq++
	p.now, p.readyAt, p.readySeq, p.state = t, t, r.seq, stateReady
}

func (r *refSched) kill(k int) {
	if k >= len(r.procs) {
		return
	}
	p := r.procs[k]
	if p.state == stateDone || p.state == stateRunning || p.killed {
		return
	}
	p.killed = true
	if t := r.clock(); t > p.now {
		p.now = t
	}
	r.seq++
	p.readyAt, p.readySeq, p.state = p.now, r.seq, stateReady
}

func (r *refSched) start(at Time) {
	k := len(r.procs)
	if k == len(r.s.bodies) {
		return
	}
	if at < r.clock() {
		at = r.clock()
	}
	r.seq++
	r.procs = append(r.procs, &refProc{name: fmt.Sprint("p", k), body: r.s.bodies[k],
		now: at, readyAt: at, readySeq: r.seq, state: stateReady})
	r.live++
}

func (r *refSched) schedule(t Time, ticker bool, fire func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.evq = append(r.evq, refEvent{at: t, seq: r.seq, ticker: ticker, fire: fire})
}

func (r *refSched) event(t Time, fire func()) { r.schedule(t, false, fire) }

// every is the loop the tool's periodic duties were before Engine.Every: an
// event that does its work and then schedules itself again.
func (r *refSched) every(d Duration, fn func()) func() {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		r.schedule(r.clock().Add(d), true, tick)
	}
	r.schedule(r.clock().Add(d), true, tick)
	return func() { stopped = true }
}

// run is the old Engine.Run. Its deadlock rule was "no process ready and no
// event pending"; with tickers in the script it is the engine's present one,
// "no event pending but tickers", or a deadlocked script would never end.
func (r *refSched) run() (deadlocked bool) {
	for r.live > 0 {
		var p *refProc
		for _, q := range r.procs {
			if q.state == stateReady && (p == nil || q.readyAt < p.readyAt ||
				(q.readyAt == p.readyAt && q.readySeq < p.readySeq)) {
				p = q
			}
		}
		first, oneShots := -1, 0
		for i, ev := range r.evq {
			if !ev.ticker {
				oneShots++
			}
			if f := first; f < 0 || ev.at < r.evq[f].at || (ev.at == r.evq[f].at && ev.seq < r.evq[f].seq) {
				first = i
			}
		}
		switch {
		case p == nil && oneShots == 0:
			return true
		case p == nil || (first >= 0 && r.evq[first].at <= p.readyAt):
			ev := r.evq[first]
			r.evq = append(r.evq[:first], r.evq[first+1:]...)
			r.now = ev.at
			ev.fire()
		default:
			r.now, p.now = p.readyAt, p.readyAt
			r.dispatch(p)
		}
	}
	return false
}

// dispatch runs p until it sleeps, waits or ends.
func (r *refSched) dispatch(p *refProc) {
	p.state = stateRunning
	r.cur = p
	defer func() { r.cur = nil }()
	p.began = p.began || !p.killed
	for !p.killed && p.pc < len(p.body) {
		o := p.body[p.pc]
		r.s.log(fmt.Sprint(p.name, ":", p.pc))
		p.pc++
		switch o.kind {
		case opSleep:
			r.seq++
			p.readyAt, p.readySeq, p.state = p.now.Add(o.d), r.seq, stateReady
			return
		case opWait:
			p.state = stateWaiting
			return
		default:
			r.s.act(o)
		}
	}
	if p.began {
		r.s.log(p.name + " exit")
	}
	p.state = stateDone
	r.live--
}

// --- the scripts -------------------------------------------------------------

// randomBodies draws times from a range small enough that several things due
// at one instant are the norm.
func randomBodies(rng *rand.Rand) [][]op {
	bodies := make([][]op, 3+rng.Intn(6))
	for i := range bodies {
		for n := 3 + rng.Intn(10); n > 0; n-- {
			o := op{d: Duration(rng.Intn(4)) * Microsecond, target: rng.Intn(len(bodies))}
			switch x := rng.Intn(100); {
			case x < 15:
				o.kind, o.d = opSleep, 0
			case x < 40:
				o.kind = opSleep
			case x < 50:
				o.kind = opWait
			case x < 65:
				o.kind = opWake
			case x < 73:
				o.kind = opKill
			case x < 81:
				o.kind = opStart
			case x < 96:
				o.kind = opEvent
				o.then = []opKind{opNone, opWake, opKill, opStart}[rng.Intn(4)]
			default:
				o.kind, o.d, o.target = opEvery, o.d+Microsecond, rng.Intn(5)
			}
			bodies[i] = append(bodies[i], o)
		}
	}
	return bodies
}

func TestAgendaMatchesScanAndMergeReference(t *testing.T) {
	const seeds = 300
	kills := map[string]int{}
	deadlocks := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bodies := randomBodies(rng)
		atStart := 1 + rng.Intn(3)

		got := &script{bodies: bodies}
		w := &engineSched{e: NewEngine(1), s: got, began: map[*Proc]bool{}, kills: kills}
		got.sched = w
		want := &script{bodies: bodies}
		r := &refSched{s: want}
		want.sched = r
		for i := 0; i < atStart; i++ {
			w.start(0)
			r.start(0)
		}
		err := w.e.Run()
		wantDeadlock := r.run()

		if gotDeadlock := err != nil && strings.Contains(err.Error(), "deadlock"); gotDeadlock != wantDeadlock || (err != nil && !gotDeadlock) {
			t.Fatalf("seed %d: engine ended with %v, reference with deadlock=%v", seed, err, wantDeadlock)
		}
		if wantDeadlock {
			deadlocks++
		}
		for i := 0; i < len(got.trace) || i < len(want.trace); i++ {
			if i >= len(got.trace) || i >= len(want.trace) || got.trace[i] != want.trace[i] {
				t.Fatalf("seed %d: traces diverge at step %d:\n engine    %q\n reference %q",
					seed, i, got.trace[min(i, len(got.trace)):], want.trace[min(i, len(want.trace)):])
			}
		}
	}
	// The scripts are random; make sure they reached what they are for.
	for _, victim := range []string{"sleeping", "waiting", "unstarted"} {
		if kills[victim] == 0 {
			t.Errorf("no script killed a %s process", victim)
		}
	}
	if deadlocks == 0 || deadlocks == seeds {
		t.Errorf("%d of %d scripts deadlocked; want some of each ending", deadlocks, seeds)
	}
}
