package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A ticker armed at t fires at t+d, t+2d, ... — from whichever context armed
// it — and an event its fn schedules for the next firing's instant fires
// before that firing, because the ticker is re-armed only after fn returns.
func TestEveryFiresEachPeriodAfterWhatItsFnScheduled(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.StartProc("p", func(p *Proc) {
		p.Sleep(5 * Second)
		e.Every(2*Second, func() {
			got = append(got, fmt.Sprint("tick ", e.Now()))
			e.After(2*Second, func() { got = append(got, fmt.Sprint("echo ", e.Now())) })
		})
		p.Sleep(5 * Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"tick 7.000s", "echo 9.000s", "tick 9.000s"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	inside, outside := 0, 0
	var a, b *Ticker
	a = e.Every(Second, func() {
		if inside++; inside == 3 {
			a.Stop()
		}
	})
	b = e.Every(Second, func() { outside++ })
	e.At(Time(4*Second+Second/2), b.Stop)
	e.StartProc("p", func(p *Proc) { p.Sleep(10 * Second) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if inside != 3 || outside != 4 {
		t.Errorf("fired %d and %d times, want 3 (stopped from fn) and 4 (stopped at 4.5s)", inside, outside)
	}
	(*Ticker)(nil).Stop() // a ticker never armed: nothing to stop
}

func TestTickersDoNotKeepRunAlive(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.Every(300*Millisecond, func() { ticks++ })
	e.StartProc("p", func(p *Proc) { p.Sleep(Second) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 || e.Now() != Time(Second) {
		t.Errorf("%d ticks, engine stopped at %v; want 3 ticks and 1s", ticks, e.Now())
	}
}

// Tickers are housekeeping: with every process waiting and nothing else
// pending, the run is deadlocked however many of them are armed — but not
// while a one-shot event that might wake somebody is still to come.
func TestDeadlockVerdictUnderTickers(t *testing.T) {
	stuck := func(e *Engine) *Proc {
		e.Every(Second, func() {})
		e.Every(700*Millisecond, func() {})
		return e.StartProc("stuck", func(p *Proc) {
			p.Sleep(2 * Second)
			p.Wait("a message that never comes")
		})
	}

	e := NewEngine(1)
	stuck(e)
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock at 2.000s") || !strings.Contains(err.Error(), "never comes") {
		t.Errorf("Run under tickers = %v, want a deadlock at 2s naming the wait", err)
	}

	e = NewEngine(1)
	p := stuck(e)
	e.At(Time(100*Second), func() { p.WakeAt(e.Now()) })
	if err := e.Run(); err != nil || e.Now() != Time(100*Second) {
		t.Errorf("Run with a wake pending at 100s = %v at %v, want nil at 100s", err, e.Now())
	}

	e = NewEngine(1)
	stuck(e)
	e.At(Time(10*Second), e.Stop)
	if err := e.Run(); err != nil || e.Now() != Time(10*Second) {
		t.Errorf("a run stopped at 10s over a deadlocked program = %v at %v, want nil at 10s", err, e.Now())
	}
}

// One dispatch costs the same whether six processes are asleep or hundreds:
// the next one to run is the top of the heap, not the result of a scan.
func BenchmarkDispatch(b *testing.B) {
	for _, procs := range []int{6, 96, 384} {
		b.Run(fmt.Sprint("procs=", procs), func(b *testing.B) {
			e := NewEngine(1)
			for i := 0; i < procs; i++ {
				n := b.N / procs
				if i < b.N%procs {
					n++
				}
				e.StartProc("p", func(p *Proc) {
					for ; n > 0; n-- {
						p.Sleep(Microsecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
