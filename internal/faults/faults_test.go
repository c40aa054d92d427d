package faults_test

import (
	"strings"
	"testing"

	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
	"pperf/internal/sim"
)

// --- plan parsing -----------------------------------------------------------

func TestParseFullPlan(t *testing.T) {
	text := `seed=7; detect=400ms; hb=100ms;
		t=2s kill-node node1;
		t=1s crash-daemon node0;
		t=1s hang-daemon node0 for=500ms;
		t=1s sever-link node0:node1 for=1s;
		t=1s degrade-link node0:node1 lat=10 bw=0.1;
		t=0s delay-attach node2 for=100ms;
		t=1.5s drop-transport node0 n=3`
	p, err := faults.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Detect != 400*sim.Millisecond || p.Heartbeat != 100*sim.Millisecond {
		t.Errorf("knobs: %+v", p)
	}
	if len(p.Faults) != 7 {
		t.Fatalf("faults = %d, want 7", len(p.Faults))
	}
	f := p.Faults[4]
	if f.Kind != faults.DegradeLink || f.Node != "node0" || f.Peer != "node1" || f.Lat != 10 || f.BW != 0.1 {
		t.Errorf("degrade-link fault: %+v", f)
	}
	if p.Faults[6].N != 3 {
		t.Errorf("drop-transport n = %d", p.Faults[6].N)
	}

	// Round trip: String() output parses back to the same plan.
	p2, err := faults.Parse(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Errorf("round trip:\n%s\n%s", p.String(), p2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"t=1s explode node0",             // unknown verb
		"t=oops kill-node node0",         // bad duration
		"t=1s hang-daemon node0",         // missing for=
		"t=1s sever-link node0 for=1s",   // not A:B
		"t=1s degrade-link node0:node1",  // no factors
		"t=1s drop-transport node0",      // missing n=
		"t=1s kill-node node0 wat=1",     // unknown option
		"seed=x",                         // bad seed
		"t=1s drop-transport node0 n=-1", // non-positive n
		"t=-1s kill-node node0",          // before the run starts
		"t=1s degrade-link * lat=NaN",    // not a number
		"t=1s degrade-link * lat=-2",     // negative factor
		"t=1s degrade-link * lat=0",      // zero factor
		"t=1s degrade-link * lat=+Inf",   // infinite factor
		"t=1s degrade-link * lat=1e300",  // overflows a scaled latency
		"t=1s degrade-link * bw=NaN",
		"t=1s degrade-link * bw=-1",
		"t=1s degrade-link * bw=Inf",
	}
	for _, text := range bad {
		if _, err := faults.Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

func TestParseWildcardLink(t *testing.T) {
	p, err := faults.Parse("t=1s degrade-link * lat=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults[0].Node != "*" || p.Faults[0].Peer != "*" {
		t.Errorf("wildcard link: %+v", p.Faults[0])
	}
}

// --- injector scheduling ----------------------------------------------------

func TestArmFiresInVirtualTimeOrder(t *testing.T) {
	p, err := faults.Parse("detect=100ms; t=300ms crash-daemon n0; t=100ms hang-daemon n1 for=50ms; t=200ms kill-node n2")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	var fired []string
	h := faults.Hooks{
		CrashDaemon: func(node string, restartable bool) { fired = append(fired, "crash:"+node) },
		HangDaemon:  func(node string, d sim.Duration) { fired = append(fired, "hang:"+node) },
		KillNode:    func(node, reason string) { fired = append(fired, "kill:"+node) },
		Abort:       func(reason string) { fired = append(fired, "abort") },
	}
	in := faults.Arm(p, eng, h)
	// Pending events alone don't keep the simulation alive; a process must
	// outlive the schedule.
	eng.StartProc("idle", func(pr *sim.Proc) { pr.Sleep(sim.Second) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"hang:n1", "kill:n2", "crash:n0", "abort"}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	log := in.Log()
	if len(log) != 4 || !strings.Contains(log[3], "abort-job") {
		t.Errorf("log = %v", log)
	}
	// The abort fires Detect after the kill.
	if !strings.HasPrefix(log[3], "0.300s") {
		t.Errorf("abort time: %q", log[3])
	}
}

func TestArmMissingHooksSkipsSafely(t *testing.T) {
	p, _ := faults.Parse("t=10ms kill-node n0; t=20ms sever-link a:b for=1s")
	eng := sim.NewEngine(1)
	in := faults.Arm(p, eng, faults.Hooks{})
	eng.StartProc("idle", func(pr *sim.Proc) { pr.Sleep(sim.Second) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, line := range in.Log() {
		if !strings.Contains(line, "skipped") {
			t.Errorf("expected skip note, got %q", line)
		}
	}
}

// --- end-to-end: PPerfMark runs under each fault type ----------------------

// runFaulted executes random-barrier under LAM with the given plan.
func runFaulted(t *testing.T, planText string) *pperfmark.Result {
	t.Helper()
	var plan *faults.Plan
	if planText != "" {
		var err error
		plan, err = faults.Parse(planText)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := pperfmark.Run("random-barrier", pperfmark.RunOptions{
		Impl:   mpi.LAM,
		Faults: plan,
	})
	if err != nil {
		t.Fatalf("run with plan %q: %v", planText, err)
	}
	return res
}

func TestEndToEndFaults(t *testing.T) {
	cases := []struct {
		name string
		plan string
		// wantFullCoverage: the tool should recover every process's data.
		wantFullCoverage bool
		// wantDegraded: some processes must end up lost.
		wantDegraded bool
	}{
		{name: "node crash mid-run", plan: "t=1s kill-node node1", wantDegraded: true},
		{name: "daemon crash", plan: "t=500ms crash-daemon node1", wantDegraded: true},
		{name: "daemon hang and reconnect", plan: "t=500ms hang-daemon node1 for=800ms", wantFullCoverage: true},
		{name: "link degradation", plan: "t=200ms degrade-link node0:node1 lat=5 bw=0.25", wantFullCoverage: true},
		{name: "link severed briefly", plan: "t=200ms sever-link node0:node1 for=100ms", wantFullCoverage: true},
		{name: "transport drops", plan: "t=300ms drop-transport node1 n=5", wantFullCoverage: true},
		{name: "delayed attach", plan: "t=0s delay-attach node1 for=200ms", wantFullCoverage: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := runFaulted(t, tc.plan)
			if len(res.FaultLog) == 0 {
				t.Fatal("no injected events logged")
			}
			if tc.wantDegraded {
				if res.Coverage >= 1.0 {
					t.Errorf("coverage = %v, want < 1.0", res.Coverage)
				}
				render := res.PC.Render()
				if !strings.Contains(render, "WARNING") || !strings.Contains(render, "partial data") {
					t.Errorf("degraded report lacks warnings:\n%s", render)
				}
			}
			if tc.wantFullCoverage && res.Coverage != 1.0 {
				t.Errorf("coverage = %v, want 1.0", res.Coverage)
			}
		})
	}
}

func TestNodeCrashDegradesOnlyCrashedNode(t *testing.T) {
	res := runFaulted(t, "t=1s kill-node node1")
	// 6 procs on 3 nodes: node1's 2 die unobserved, the rest are aborted by
	// the failure detector as observed exits.
	if res.Coverage <= 0.5 || res.Coverage >= 1.0 {
		t.Errorf("coverage = %v, want in (0.5, 1.0)", res.Coverage)
	}
	found := false
	for _, ev := range res.FaultLog {
		if strings.Contains(ev, "abort-job") {
			found = true
		}
	}
	if !found {
		t.Errorf("failure detector never aborted the job: %v", res.FaultLog)
	}
}

func TestFaultedRunsDeterministic(t *testing.T) {
	a := runFaulted(t, "seed=3; t=1s kill-node node1")
	b := runFaulted(t, "seed=3; t=1s kill-node node1")
	if ra, rb := a.PC.Render(), b.PC.Render(); ra != rb {
		t.Errorf("reports differ:\n%s\n---\n%s", ra, rb)
	}
	if a.Coverage != b.Coverage || a.RunTime != b.RunTime {
		t.Errorf("coverage/runtime differ: %v/%v vs %v/%v", a.Coverage, a.RunTime, b.Coverage, b.RunTime)
	}
	la, lb := a.FaultLog, b.FaultLog
	if len(la) != len(lb) {
		t.Fatalf("fault logs differ: %v vs %v", la, lb)
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Errorf("fault logs differ at %d: %q vs %q", i, la[i], lb[i])
		}
	}
}

func TestHealthyRunUnaffected(t *testing.T) {
	res := runFaulted(t, "")
	if res.Coverage != 1.0 {
		t.Errorf("coverage = %v", res.Coverage)
	}
	if len(res.FaultLog) != 0 {
		t.Errorf("fault log = %v", res.FaultLog)
	}
	render := res.PC.Render()
	if strings.Contains(render, "WARNING") || strings.Contains(render, "partial data") {
		t.Errorf("healthy report carries degradation markers:\n%s", render)
	}
}
