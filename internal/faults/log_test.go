package faults

import (
	"testing"

	"pperf/internal/sim"
)

func TestLogTime(t *testing.T) {
	if tm, ok := LogTime("2.000s kill-node node1"); !ok || tm != sim.Time(2*sim.Second) {
		t.Errorf("LogTime = %v, %v", tm, ok)
	}
	if tm, ok := LogTime("0.500s degrade-link *:* lat=1 bw=0.9"); !ok || tm != sim.Time(500*sim.Millisecond) {
		t.Errorf("LogTime = %v, %v", tm, ok)
	}
	for _, bad := range []string{"", "kill-node node1", "notatime x", "-1s y"} {
		if _, ok := LogTime(bad); ok {
			t.Errorf("LogTime(%q) accepted", bad)
		}
	}
}

func TestFirstFireTime(t *testing.T) {
	log := []string{
		"1.000s hang-daemon node2: no hook, skipped",
		"2.500s crash-daemon node1 (restartable)",
		"3.000s kill-node node3",
	}
	if tm, ok := FirstFireTime(log); !ok || tm != sim.Time(2500*sim.Millisecond) {
		t.Errorf("FirstFireTime = %v, %v; want 2.5s", tm, ok)
	}
	if _, ok := FirstFireTime(nil); ok {
		t.Error("empty log reported a fire time")
	}
	if _, ok := FirstFireTime([]string{"1.000s sever-link: no hook, skipped"}); ok {
		t.Error("skipped-only log reported a fire time")
	}
}

// TestInjectorLogRoundTrips pins the contract between the injector's
// note format and the offline parser: every fired entry of a real armed
// plan must carry a recoverable stamp.
func TestInjectorLogRoundTrips(t *testing.T) {
	plan, err := Parse("t=2s kill-node node1; t=500ms degrade-link * bw=0.1")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	in := Arm(plan, eng, Hooks{
		KillNode: func(node, reason string) {},
		Abort:    func(reason string) {},
		SetLink:  func(a, b string, lat, bw float64, downFor sim.Duration) {},
	})
	eng.StartProc("clock", func(p *sim.Proc) { p.Sleep(5 * sim.Second) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	log := in.Log()
	if len(log) == 0 {
		t.Fatal("no log entries")
	}
	for _, line := range log {
		if _, ok := LogTime(line); !ok {
			t.Errorf("unparseable log line %q", line)
		}
	}
	if tm, ok := FirstFireTime(log); !ok || tm != sim.Time(500*sim.Millisecond) {
		t.Errorf("FirstFireTime = %v, %v; want 0.5s (log %v)", tm, ok, log)
	}
}
