package faults_test

// End-to-end tests for the self-healing daemon supervisor: a restartable
// crash-daemon fault under a restarts=K budget must end the run fully
// recovered (Coverage 1.0), with the outage visible only as an unmeasured
// gap — and the whole faulted run must stay byte-identically reproducible.

import (
	"strings"
	"testing"
)

const acceptancePlan = "restarts=2; t=1s crash-daemon node1 restartable"

func TestSupervisorRecoversRestartableCrash(t *testing.T) {
	res := runFaulted(t, acceptancePlan)
	if res.Coverage != 1.0 {
		t.Errorf("coverage = %v, want 1.0 (supervisor did not recover)", res.Coverage)
	}

	var respawned, detected bool
	for _, ev := range res.FaultLog {
		if strings.Contains(ev, "supervisor: respawned daemon on node1") {
			respawned = true
		}
		if strings.Contains(ev, "supervisor: daemon on node1 down") {
			detected = true
		}
	}
	if !detected || !respawned {
		t.Fatalf("fault log lacks the detect/respawn cycle:\n%s", strings.Join(res.FaultLog, "\n"))
	}

	sv := res.Session.FE.Supervisor()
	if sv == nil {
		t.Fatal("no supervisor armed despite restarts=2")
	}
	if got := sv.Stats()["node1"]; got.Restarts != 1 || got.Incarnation != 2 {
		t.Errorf("node1 %+v, want 1 restart and incarnation 2", got)
	}

	render := res.PC.Render()
	// The outage surfaces as a gap warning — but NOT as the lost-process
	// degradation block, because nothing stayed lost.
	if !strings.Contains(render, "unmeasured gap on node1") {
		t.Errorf("report lacks the gap warning:\n%s", render)
	}
	if strings.Contains(render, "surviving processes only") {
		t.Errorf("recovered run still carries the lost-process warning:\n%s", render)
	}
	if len(res.Session.FE.UnmeasuredGaps()) != 1 {
		t.Errorf("gaps = %+v, want exactly 1", res.Session.FE.UnmeasuredGaps())
	}
}

func TestSupervisorRunsDeterministic(t *testing.T) {
	a := runFaulted(t, acceptancePlan)
	b := runFaulted(t, acceptancePlan)
	if ra, rb := a.PC.Render(), b.PC.Render(); ra != rb {
		t.Errorf("reports differ:\n%s\n---\n%s", ra, rb)
	}
	if a.Coverage != b.Coverage || a.RunTime != b.RunTime {
		t.Errorf("coverage/runtime differ: %v/%v vs %v/%v", a.Coverage, a.RunTime, b.Coverage, b.RunTime)
	}
	if la, lb := strings.Join(a.FaultLog, "\n"), strings.Join(b.FaultLog, "\n"); la != lb {
		t.Errorf("fault logs differ:\n%s\n---\n%s", la, lb)
	}
}

// With heartbeats disabled the liveness monitor can never observe the
// silence; the restartable crash's direct supervisor notification is the
// only detection path, and it must suffice.
func TestSupervisorHbZeroRecoversViaDirectNotification(t *testing.T) {
	res := runFaulted(t, "hb=0s; restarts=2; t=500ms crash-daemon node1 restartable")
	if res.Coverage != 1.0 {
		t.Errorf("coverage = %v, want 1.0", res.Coverage)
	}
	var respawned bool
	for _, ev := range res.FaultLog {
		if strings.Contains(ev, "supervisor: respawned daemon on node1") {
			respawned = true
		}
	}
	if !respawned {
		t.Fatalf("hb=0 crash never recovered:\n%s", strings.Join(res.FaultLog, "\n"))
	}
	if got := res.Session.FE.Supervisor().Stats()["node1"].Restarts; got != 1 {
		t.Errorf("restarts = %d, want 1", got)
	}
}

// A bare (non-restartable) crash-daemon under a restart budget keeps the
// pre-supervisor permanent-loss semantics: the supervisor must not touch
// it.
func TestSupervisorLeavesUnrestartableCrashAlone(t *testing.T) {
	res := runFaulted(t, "restarts=2; t=500ms crash-daemon node1")
	if res.Coverage >= 1.0 {
		t.Errorf("coverage = %v, want < 1.0 (unrestartable crash was healed?)", res.Coverage)
	}
	for _, ev := range res.FaultLog {
		if strings.Contains(ev, "supervisor: respawned") {
			t.Fatalf("supervisor respawned an unrestartable crash:\n%s", strings.Join(res.FaultLog, "\n"))
		}
	}
	if got := res.Session.FE.Supervisor().Stats()["node1"].Restarts; got != 0 {
		t.Errorf("restarts = %d, want 0", got)
	}
}
