package faults

import (
	"strings"
	"time"

	"pperf/internal/sim"
)

// The injector's audit log is the durable record of what actually fired:
// each line is the virtual-time stamp (sim.Time's "%.3fs" form) followed
// by the event description, and recording harnesses persist the log with
// the run. These helpers parse the stamps back out so offline consumers —
// the PerfDB diff plane's -since-fault window anchor in particular — can
// recover when a run's faults fired without replaying it.

// LogTime parses the virtual-time stamp off one audit-log line. ok is
// false when the line does not start with a parseable stamp.
func LogTime(line string) (sim.Time, bool) {
	stamp, _, found := strings.Cut(line, " ")
	if !found {
		stamp = line
	}
	d, err := time.ParseDuration(stamp)
	if err != nil || d < 0 {
		return 0, false
	}
	return sim.Time(d), true
}

// FirstFireTime returns the virtual time of the first fault that fired in
// the audit log. ok is false when nothing fired: an empty log, or one with no
// stamped line.
func FirstFireTime(log []string) (sim.Time, bool) {
	for _, line := range log {
		if t, ok := LogTime(line); ok {
			return t, true
		}
	}
	return 0, false
}
