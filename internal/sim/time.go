// Package sim implements a deterministic, sequential discrete-event
// simulation engine with process-oriented (coroutine) semantics.
//
// The engine stands in for the real Linux cluster the paper ran on: simulated
// processes are goroutines that advance a virtual clock, exchange timed
// events, and block on conditions. Exactly one simulated process (or event
// callback) executes at a time, scheduled in virtual-time order with a
// deterministic tie-break, so every run of a simulation is reproducible.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is deliberately the
// same representation as time.Duration so the standard constants
// (time.Millisecond etc.) can be used when constructing workloads.
type Duration = time.Duration

// Common durations, re-exported for convenience so that workload code does
// not need to import both sim and time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and s (t - s).
func (t Time) Sub(s Time) Duration { return Duration(t - s) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }
