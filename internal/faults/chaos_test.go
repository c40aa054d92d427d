package faults_test

// Chaos harness: ~50 seeded random fault plans, each run end-to-end under
// the full tool. The invariants are deliberately coarse — the point is not
// that any particular plan produces any particular finding, but that NO
// valid plan can break the tool's contract:
//
//   1. the run terminates without error or panic,
//   2. reported data coverage stays within [0, 1],
//   3. an identical-seed re-run is byte-identical (report, coverage,
//      runtime, fault log).
//
// The full sweep is expensive (~50 simulated runs, doubled for the
// determinism check), so it is gated behind CHAOS=1 and wired to
// `make chaos`. The generator round-trip test below always runs.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pperf/internal/faults"
	"pperf/internal/sim"
)

// chaosNodes are the node names of pperfmark's default 3-node cluster.
var chaosNodes = []string{"node0", "node1", "node2"}

const (
	chaosPlans     = 50
	chaosMaxFaults = 3
	chaosHorizon   = 2 * sim.Second
)

// Every generated plan must survive a round trip through the text grammar
// with String as a fixed point — otherwise a chaos failure could not be
// reproduced from its printed plan. This is cheap and always runs.
func TestGenPlanRoundTrips(t *testing.T) {
	for seed := uint64(0); seed < 250; seed++ {
		p := mustGenParse(seed, chaosNodes, chaosMaxFaults, chaosHorizon)
		q, err := faults.Parse(p.String())
		if err != nil {
			t.Fatalf("seed %d: reparse %q: %v", seed, p.String(), err)
		}
		if q.String() != p.String() {
			t.Fatalf("seed %d: String not a fixed point:\n%s\n%s", seed, p.String(), q.String())
		}
	}
}

func TestChaosPlans(t *testing.T) {
	if os.Getenv("CHAOS") != "1" {
		t.Skip("chaos sweep disabled; run via 'make chaos' (CHAOS=1)")
	}
	for seed := uint64(1); seed <= chaosPlans; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			plan := mustGenParse(seed, chaosNodes, chaosMaxFaults, chaosHorizon)
			text := plan.String()
			t.Logf("plan: %s", text)

			a := runFaulted(t, text) // Fatals on run error; panics fail the test
			if a.Coverage < 0 || a.Coverage > 1 {
				t.Errorf("coverage = %v, want within [0, 1]", a.Coverage)
			}

			b := runFaulted(t, text)
			if ra, rb := a.PC.Render(), b.PC.Render(); ra != rb {
				t.Errorf("re-run report differs:\n%s\n---\n%s", ra, rb)
			}
			if a.Coverage != b.Coverage || a.RunTime != b.RunTime {
				t.Errorf("re-run coverage/runtime differ: %v/%v vs %v/%v",
					a.Coverage, a.RunTime, b.Coverage, b.RunTime)
			}
			if la, lb := strings.Join(a.FaultLog, "\n"), strings.Join(b.FaultLog, "\n"); la != lb {
				t.Errorf("re-run fault logs differ:\n%s\n---\n%s", la, lb)
			}
		})
	}
}

// Random plan generation: genPlan draws a syntactically valid, seeded fault
// plan from the full clause space — every verb, every option, restart budgets
// included — so the sweep hammers the resilience stack with schedules nobody
// hand-wrote. Equal generator seeds produce equal plans, so a failing chaos
// case is reproducible from its seed alone.

// genSeedSalt decorrelates the generator's RNG stream from the plan's own
// Seed knob (both derive from the chaos case number).
const genSeedSalt = 0x6368616f // "chao"

// genPlan deterministically generates a random fault plan from seed. The
// generated plan always parses (it is rendered through the same clause
// grammar Parse reads), targets only the given node names, and schedules
// one to maxFaults faults inside the first horizon of virtual time.
func genPlan(seed uint64, nodes []string, maxFaults int, horizon sim.Duration) *faults.Plan {
	rng := sim.NewRNG(seed ^ genSeedSalt)
	intn := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	p := faults.New()
	p.Seed = seed

	// Resilience knobs: occasionally stretch or disable detection to cover
	// the no-liveness paths.
	switch intn(4) {
	case 0:
		p.Heartbeat = 0 // no liveness monitor at all
	case 1:
		p.Heartbeat = sim.Duration(50+intn(400)) * sim.Millisecond
		p.Detect = 2 * p.Heartbeat
	}
	if intn(2) == 0 {
		p.Restarts = 1 + intn(3)
	}

	pick := func() string { return nodes[intn(len(nodes))] }
	pair := func() (string, string) {
		a := intn(len(nodes))
		b := (a + 1 + intn(len(nodes)-1)) % len(nodes)
		return nodes[a], nodes[b]
	}

	// Fault times land on millisecond boundaries from 10ms up to the
	// horizon: early enough to hit attach and warm-up paths, never at the
	// exact t=0 instant before anything has launched.
	horizonMs := int(horizon / sim.Millisecond)
	n := 1 + intn(maxFaults)
	for i := 0; i < n; i++ {
		f := faults.Fault{At: sim.Duration(10+intn(horizonMs-10)) * sim.Millisecond}
		switch intn(7) {
		case 0:
			f.Kind, f.Node = faults.KillNode, pick()
		case 1:
			f.Kind, f.Node = faults.CrashDaemon, pick()
			f.Restartable = intn(2) == 0
		case 2:
			f.Kind, f.Node = faults.HangDaemon, pick()
			f.For = sim.Duration(10+intn(900)) * sim.Millisecond
		case 3:
			f.Kind = faults.SeverLink
			f.Node, f.Peer = pair()
			f.For = sim.Duration(10+intn(500)) * sim.Millisecond
		case 4:
			f.Kind = faults.DegradeLink
			f.Node, f.Peer = pair()
			f.Lat = 1 + float64(intn(20))
			if intn(2) == 0 {
				f.BW = 0.1 + 0.4*float64(rng.Uint64()>>11)/(1<<53)
			}
		case 5:
			f.Kind, f.Node = faults.DelayAttach, pick()
			f.For = sim.Duration(10+intn(400)) * sim.Millisecond
		default:
			f.Kind, f.Node = faults.DropTransport, pick()
			f.N = 1 + intn(8)
			f.Chan = []string{"", faults.ChanCtl, faults.ChanBulk, faults.ChanBoth, faults.ChanSync}[intn(5)]
		}
		p.Faults = append(p.Faults, f)
	}
	return p
}

// mustGenParse is genPlan plus a round-trip through the text grammar — the
// generated plan rendered by String and re-read by Parse. It panics if the
// round trip fails, which would mean the generator and the grammar have
// diverged (a chaos-harness bug, not a chaos finding).
func mustGenParse(seed uint64, nodes []string, maxFaults int, horizon sim.Duration) *faults.Plan {
	g := genPlan(seed, nodes, maxFaults, horizon)
	p, err := faults.Parse(g.String())
	if err != nil {
		panic(fmt.Sprintf("faults: generated plan %q does not parse: %v", g.String(), err))
	}
	return p
}
