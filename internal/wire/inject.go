package wire

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pperf/internal/sim"
)

// Injection is the wire plane's single fault-injection point: every
// channel (ctl, bulk, sync — in-process or TCP) consults one of these
// before an attempt — each Conn owns one, and the in-process
// faults.FlakyTransport holds one per channel — and the fault plan's
// drop-transport / degrade-link clauses arm it (faults.ArmDrops for the
// report channels, the sync client for chan=sync).
type Injection struct {
	Chan string // channel label for error messages ("ctl", "bulk", "sync")

	mu      sync.Mutex
	drops   int           // remaining injected frame failures
	lat     time.Duration // per-frame degrade delay
	bwFail  float64       // per-frame failure probability (1 - bandwidth factor)
	bwRNG   *sim.RNG      // degrade-link failure draw (independent of retry jitter)
	dropped int64         // attempts failed so far
}

// NewInjection returns an idle injection point for the named channel.
func NewInjection(ch string) *Injection { return &Injection{Chan: ch} }

// SeedBW (re)seeds the degrade-link failure draw. Kept separate from the
// retry jitter stream so injected failures never perturb retry schedules.
func (in *Injection) SeedBW(seed uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.bwRNG = sim.NewRNG(seed)
}

// AddDrops arms n more frame failures (the drop-transport budget).
func (in *Injection) AddDrops(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.drops += n
}

// Degrade arms the degrade-link shaping: lat is slept before every frame,
// and bw < 1 fails each frame with probability 1-bw from the seeded draw.
func (in *Injection) Degrade(lat time.Duration, bw float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if lat > 0 {
		in.lat = lat
	}
	if bw > 0 && bw < 1 {
		in.bwFail = 1 - bw
	}
}

// Dropped returns how many attempts the injection point has failed.
func (in *Injection) Dropped() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dropped
}

// Check consults the armed state before one attempt: a non-nil return
// fails the attempt. Drop budgets are consumed first, then the seeded
// degraded-link draw; an attempt that survives both pays the configured
// per-frame latency.
func (in *Injection) Check() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.drops > 0 {
		in.drops--
		in.dropped++
		return fmt.Errorf("injected %s fault (%d more)", in.Chan, in.drops)
	}
	if in.bwFail > 0 && in.bwRNG != nil && float64(in.bwRNG.Uint64()%1000)/1000 < in.bwFail {
		in.dropped++
		return errors.New("injected degraded-link " + in.Chan + " fault")
	}
	if in.lat > 0 {
		time.Sleep(in.lat)
	}
	return nil
}

// Idle reports whether nothing is armed (the zero-cost fast path: callers
// may skip Check entirely).
func (in *Injection) Idle() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.drops == 0 && in.bwFail == 0 && in.lat == 0
}
