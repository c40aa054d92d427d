package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSingleProcAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var end Time
	e.StartProc("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(5*Second) {
		t.Errorf("end = %v, want 5s", end)
	}
}

func TestProcsInterleaveInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	mark := func(name string, p *Proc) {
		order = append(order, fmt.Sprintf("%s@%v", name, p.Now()))
	}
	e.StartProc("a", func(p *Proc) {
		p.Sleep(3 * time.Second)
		mark("a", p)
	})
	e.StartProc("b", func(p *Proc) {
		p.Sleep(1 * time.Second)
		mark("b", p)
		p.Sleep(4 * time.Second)
		mark("b", p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@1.000s", "a@3.000s", "b@5.000s"}
	if got := strings.Join(order, ","); got != strings.Join(want, ",") {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestEventsFireAtScheduledTime(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(Time(2*Second), func() { fired = append(fired, e.Now()) })
	e.At(Time(1*Second), func() { fired = append(fired, e.Now()) })
	e.StartProc("p", func(p *Proc) { p.Sleep(3 * time.Second) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(1*Second) || fired[1] != Time(2*Second) {
		t.Errorf("fired = %v, want [1s 2s]", fired)
	}
}

func TestEventsDoNotKeepSimAlive(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(Time(100*Second), func() { fired = true })
	e.StartProc("p", func(p *Proc) { p.Sleep(1 * time.Second) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event after last process exit should not fire")
	}
	if e.Now() != Time(1*Second) {
		t.Errorf("engine stopped at %v, want 1s", e.Now())
	}
}

func TestWaitAndWake(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var consumerTime Time
	e.StartProc("consumer", func(p *Proc) {
		c.Wait(p, "item")
		consumerTime = p.Now()
	})
	e.StartProc("producer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		c.Broadcast(p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if consumerTime != Time(2*Second) {
		t.Errorf("consumer woke at %v, want 2s", consumerTime)
	}
}

func TestWakeNeverMovesClockBackward(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var woke Time
	e.StartProc("late", func(p *Proc) {
		p.Sleep(10 * time.Second)
		c.Wait(p, "thing")
		woke = p.Now()
	})
	e.StartProc("early", func(p *Proc) {
		p.Sleep(11 * time.Second)
		// Attempt to wake at a time earlier than the waiter's clock; the
		// waiter's clock must not go backward.
		c.Broadcast(Time(1 * Second))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(10*Second) {
		t.Errorf("woke at %v, want clamped to 10s", woke)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	e.StartProc("stuck", func(p *Proc) { c.Wait(p, "a message that never comes") })
	err := e.Run()
	if err == nil {
		t.Fatal("want deadlock error, got nil")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "never comes") {
		t.Errorf("error %q should mention deadlock and the wait reason", err)
	}
}

func TestPanicIsCaptured(t *testing.T) {
	e := NewEngine(1)
	e.StartProc("bad", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want panic error containing boom", err)
	}
}

func TestStartProcDuringRun(t *testing.T) {
	e := NewEngine(1)
	var childEnd Time
	e.StartProc("parent", func(p *Proc) {
		p.Sleep(1 * time.Second)
		e.StartProc("child", func(q *Proc) {
			q.Sleep(2 * time.Second)
			childEnd = q.Now()
		})
		p.Sleep(5 * time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != Time(3*Second) {
		t.Errorf("child ended at %v, want 3s (started at 1s + 2s)", childEnd)
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.StartProc("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	// A bounded run is a Stop event at the horizon.
	e.At(e.Now().Add(10*time.Second+500*time.Millisecond), e.Stop)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func() string {
		e := NewEngine(42)
		var b strings.Builder
		for i := 0; i < 5; i++ {
			e.StartProc(fmt.Sprintf("p%d", i), func(p *Proc) {
				r := e.RNG() // shared rng accessed in deterministic order
				for j := 0; j < 20; j++ {
					p.Sleep(Duration(r.Intn(1000)) * time.Millisecond)
					fmt.Fprintf(&b, "%s@%v;", p.Name(), p.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := trace(), trace(); a != b {
		t.Error("two identical runs produced different traces")
	}
}

func TestTieBreakIsStartOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		e.StartProc(name, func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, p.Name())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "xyz" {
		t.Errorf("tie-break order = %q, want xyz (start order)", got)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	woken := 0
	for i := 0; i < 3; i++ {
		e.StartProc(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p, "signal")
			woken++
		})
	}
	e.StartProc("signaller", func(p *Proc) {
		p.Sleep(time.Second)
		if got := c.Signal(p.Now()); got == nil {
			t.Error("Signal returned nil with waiters present")
		}
		p.Sleep(time.Second)
		c.Broadcast(p.Now()) // release the rest so the sim can finish
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
}

func TestEventAtPastTimeClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.StartProc("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		e.At(Time(1*Second), func() { at = e.Now() })
		p.Sleep(time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*Second) {
		t.Errorf("past event fired at %v, want clamped to 5s", at)
	}
}

func TestTimeConversions(t *testing.T) {
	tt := Time(1500 * Millisecond)
	if tt.Seconds() != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", tt.Seconds())
	}
	if tt.String() != "1.500s" {
		t.Errorf("String() = %q", tt.String())
	}
	if got := tt.Add(500 * Millisecond); got != Time(2*Second) {
		t.Errorf("Add = %v", got)
	}
	if got := tt.Sub(Time(1 * Second)); got != 500*Millisecond {
		t.Errorf("Sub = %v", got)
	}
}

// Property: the sequence of (time, proc) dispatches is monotone in time.
func TestPropertyMonotoneDispatch(t *testing.T) {
	f := func(seed uint64, nProcs uint8, steps uint8) bool {
		n := int(nProcs%8) + 1
		k := int(steps%50) + 1
		e := NewEngine(seed)
		last := Time(-1)
		ok := true
		for i := 0; i < n; i++ {
			e.StartProc(fmt.Sprintf("p%d", i), func(p *Proc) {
				r := e.RNG()
				for j := 0; j < k; j++ {
					p.Sleep(Duration(r.Intn(100)) * time.Millisecond)
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RNG Intn always lands in range, and a stream seeded from
// another's first draw differs from it.
func TestPropertyRNG(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := NewRNG(seed)
		m := int(n%1000) + 1
		for i := 0; i < 100; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
			fl := r.Float64()
			if fl < 0 || fl >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	a, b := NewRNG(NewRNG(7).Uint64()), NewRNG(7)
	if a.Uint64() == b.Uint64() {
		t.Error("a stream seeded from another's draw should differ from it")
	}
}
