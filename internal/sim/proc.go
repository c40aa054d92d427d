package sim

import (
	"fmt"
	"runtime/debug"
)

type procState int

const (
	stateReady procState = iota // eligible to run at readyAt
	stateRunning
	stateWaiting // blocked until another party calls wake
	stateDone
)

// Proc is a simulated process: a goroutine whose execution is interleaved
// with other processes in virtual-time order. All Proc methods except WakeAt
// must be called from within the process's own body function.
type Proc struct {
	eng  *Engine
	name string

	now      Time
	readySeq uint64 // seq of the agenda entry that dispatches p next
	state    procState

	resume chan struct{}
	yield  chan struct{}

	waitSince Time
	waitWhat  any // what the proc is waiting for; formatted only for a report
	panicErr  error

	killed     bool
	killReason string

	// Val is an arbitrary slot for higher layers to attach per-process
	// context (e.g. the MPI rank state) without a map lookup.
	Val any
}

// procKilled is the panic sentinel used to unwind a killed process's
// goroutine. It is recovered in run and never escapes the package.
type procKilled struct{ reason string }

// StartProc creates a new simulated process named name whose body is fn; it
// becomes runnable at the current virtual time. May be called before Run or
// during the simulation (e.g. to model dynamically spawned MPI processes).
func (e *Engine) StartProc(name string, fn func(p *Proc)) *Proc {
	return e.StartProcAt(name, e.Now(), fn)
}

// StartProcAt is StartProc with an explicit start time (>= current time).
func (e *Engine) StartProcAt(name string, at Time, fn func(p *Proc)) *Proc {
	if at < e.Now() {
		at = e.Now()
	}
	p := &Proc{
		eng:    e,
		name:   name,
		now:    at,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	e.procs = append(e.procs, p)
	e.live++
	p.ready(at)
	go p.run(fn)
	return p
}

// ready puts p on the agenda to be dispatched at t, after every event due
// then and every process made ready before it.
func (p *Proc) ready(t Time) {
	e := p.eng
	e.seq++
	p.readySeq = e.seq | procClass
	p.state = stateReady
	e.evq.push(event{at: t, seq: p.readySeq, proc: p})
}

// run is the goroutine body wrapping the user function with scheduling
// handshakes and panic capture.
func (p *Proc) run(fn func(*Proc)) {
	<-p.resume
	defer func() {
		if r := recover(); r != nil {
			if _, wasKill := r.(procKilled); !wasKill {
				p.panicErr = fmt.Errorf("sim: process %q panicked at %v: %v\n%s",
					p.name, p.now, r, debug.Stack())
			}
		}
		p.state = stateDone
		p.yield <- struct{}{}
	}()
	if p.killed {
		return // killed before first dispatch
	}
	fn(p)
}

// Now returns the process's local virtual clock.
func (p *Proc) Now() Time { return p.now }

// Sleep advances the process's clock by d, yielding to the scheduler so that
// events and other processes with earlier timestamps run first. d <= 0
// yields without advancing time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.ready(p.now.Add(d))
	p.switchOut()
}

// Wait blocks the process until another party calls WakeAt. what describes
// the wait in deadlock reports: a string, or a fmt.Stringer, which is asked
// for its text only if a report is actually printed — so a hot caller hands
// over a value it already has instead of formatting one per wait. Wait
// returns the (possibly advanced) local time at wake-up.
func (p *Proc) Wait(what any) Time {
	p.state = stateWaiting
	p.waitSince = p.now
	p.waitWhat = what
	p.switchOut()
	return p.now
}

// WakeAt makes a waiting process runnable at time t (or at its current local
// clock if that is later). It must be called from scheduler context (an
// event callback) or from another running process. Waking a process that is
// not waiting is a no-op and returns false.
func (p *Proc) WakeAt(t Time) bool {
	if p.state != stateWaiting {
		return false
	}
	if t < p.now {
		t = p.now
	}
	p.now = t
	p.ready(t)
	return true
}

// Kill forcibly terminates the process (modelling a node crash or a job
// abort): the next time the scheduler dispatches it, its goroutine unwinds —
// running deferred functions — without executing further application code,
// and the process counts as done without an error. Kill must be called from
// scheduler context (an event callback) or from another running process;
// killing an already-done or currently-running process is a no-op returning
// false.
func (p *Proc) Kill(reason string) bool {
	if p.state == stateDone || p.state == stateRunning || p.killed {
		return false
	}
	p.killed = true
	p.killReason = reason
	e := p.eng
	if t := e.Now(); t > p.now {
		p.now = t
	}
	if p.state == stateReady {
		e.inert++ // the entry p was to be dispatched by is superseded
	}
	p.ready(p.now)
	return true
}

// switchOut transfers control back to the scheduler and blocks until the
// scheduler dispatches this process again.
func (p *Proc) switchOut() {
	p.yield <- struct{}{}
	<-p.resume
	p.state = stateRunning
	if p.killed {
		panic(procKilled{reason: p.killReason})
	}
}

// Done reports whether the process has finished.
func (p *Proc) Done() bool { return p.state == stateDone }
