package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Engine is a sequential discrete-event simulator. All simulated processes
// and event callbacks execute one at a time under the engine's control, so
// no locking is required anywhere in simulation code.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	// evq is the one agenda: scheduled events and ready processes, in the
	// order they will run.
	evq eventHeap
	seq uint64
	// inert counts the entries of evq that can neither run nor wake a
	// process: armed tickers, and process entries superseded by a later wake.
	inert   int
	procs   []*Proc
	live    int // procs not yet done
	cur     *Proc
	running bool
	err     error
}

// NewEngine returns a new simulation engine. The engine draws no random
// numbers, so seed changes nothing: runs that differ only in it are
// identical. Callers record it with the run (core.Options.Seed).
func NewEngine(seed uint64) *Engine {
	return &Engine{}
}

// Now returns the current virtual time. During a process's execution this is
// the process's local clock; during an event callback it is the event time.
func (e *Engine) Now() Time {
	if e.cur != nil {
		return e.cur.now
	}
	return e.now
}

// Schedule arranges for tg.Fire to run at virtual time t. If t is before the
// current time, it runs at the current time (events cannot fire in the past).
// Events run in scheduler context: they must not block, but may wake
// processes, schedule further events, and start new processes. Events due at
// the same time fire in the order they were scheduled.
func (e *Engine) Schedule(t Time, tg Target) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.evq.push(event{at: t, seq: e.seq, tgt: tg})
}

// At schedules fn to run at virtual time t, as Schedule does a Target.
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, funcTarget(fn)) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) { e.At(e.Now().Add(d), fn) }

// Ticker is a periodic callback armed by Every. It is housekeeping: it does
// not keep Run alive, and Run does not count on it to wake a waiting process.
type Ticker struct {
	eng     *Engine
	period  Duration
	fn      func()
	fire    func() // tick, bound once so that re-arming allocates nothing
	stopped bool
}

// Every runs fn every d of virtual time, first at d after the current time,
// until the ticker is stopped. Each firing is re-armed after fn returns, so an
// event fn schedules for the next firing's instant fires before it.
func (e *Engine) Every(d Duration, fn func()) *Ticker {
	if d <= 0 {
		panic("sim: Every needs a positive period")
	}
	t := &Ticker{eng: e, period: d, fn: fn}
	t.fire = t.tick
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.eng.inert++
	t.eng.After(t.period, t.fire)
}

func (t *Ticker) tick() {
	t.eng.inert--
	if !t.stopped {
		t.fn()
	}
	if !t.stopped {
		t.arm()
	}
}

// Stop ends the ticker: fn does not run again. It may be called from fn, and
// on a nil Ticker (one never armed) it does nothing.
func (t *Ticker) Stop() {
	if t != nil {
		t.stopped = true
	}
}

// Run executes the simulation until no live processes remain or a process
// panics. Pending events do not keep the simulation alive once
// all processes have finished. Run returns the first error encountered: a
// process panic or a deadlock — processes waiting, none ready, and nothing
// pending but tickers, which are housekeeping and wake nobody.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	for e.err == nil && e.live > 0 {
		if len(e.evq) == e.inert {
			return e.deadlock()
		}
		ev := e.evq.pop()
		switch p := ev.proc; {
		case p == nil:
			e.now = ev.at
			ev.tgt.Fire()
		case ev.seq != p.readySeq: // superseded by the entry Kill pushed
			e.inert--
		default:
			e.now, p.now = ev.at, ev.at
			e.dispatch(p)
		}
	}
	return e.err
}

// dispatch hands control to p and blocks until p yields back.
func (e *Engine) dispatch(p *Proc) {
	p.state = stateRunning
	e.cur = p
	p.resume <- struct{}{}
	<-p.yield
	e.cur = nil
	if p.state == stateDone {
		e.live--
		if p.panicErr != nil && e.err == nil {
			e.err = p.panicErr
		}
	}
}

// deadlock constructs the error reported when processes are waiting but no
// event can ever wake them.
func (e *Engine) deadlock() error {
	var waiting []string
	for _, p := range e.procs {
		if p.state == stateWaiting {
			waiting = append(waiting, fmt.Sprintf("%s (since %v, in %v)", p.name, p.waitSince, p.waitWhat))
		}
	}
	sort.Strings(waiting)
	e.err = fmt.Errorf("sim: deadlock at %v: %d process(es) waiting with nothing pending that could wake them: %s",
		e.now, len(waiting), strings.Join(waiting, "; "))
	return e.err
}
