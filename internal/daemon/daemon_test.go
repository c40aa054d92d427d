package daemon

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/datasource"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// recorder captures everything a daemon forwards.
type recorder struct {
	samples []datasource.Sample
	updates []datasource.Update
}

func (r *recorder) Report(ev session.Event) error {
	switch ev.Kind {
	case session.EvSamples:
		r.samples = append(r.samples, ev.Samples...)
	case session.EvUpdate:
		r.updates = append(r.updates, ev.Update)
	}
	return nil
}

// rig builds a 2-node world with one daemon per node wired to a recorder.
func rig(t *testing.T, impl mpi.ImplKind, cfg Config) (*sim.Engine, *mpi.World, []*Daemon, *recorder) {
	t.Helper()
	eng := sim.NewEngine(13)
	spec := cluster.DefaultSpec(2, 1)
	w := mpi.NewWorld(eng, spec, mpi.NewImpl(impl))
	rec := &recorder{}
	var ds []*Daemon
	for node := range spec.Nodes {
		ds = append(ds, New(eng, node, spec.Nodes[node].Name, mdl.StdLib(), rec, cfg))
	}
	AttachAll(w, ds)
	return eng, w, ds, rec
}

func pingProgram(iters int) mpi.Program {
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < iters; i++ {
			if r.Rank() == 0 {
				r.Call("app.c", "produce", func() { r.Compute(10 * sim.Millisecond) })
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 1, mpi.Byte, 0, 0)
			}
		}
	}
}

func TestDaemonAdoptsAndSamples(t *testing.T) {
	eng, w, ds, rec := rig(t, mpi.LAM, DefaultConfig())
	w.Register("p", pingProgram(100))
	if _, err := w.LaunchN("p", 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ds[0].Enable("msgs_sent", resource.WholeProgram()); err != nil {
		t.Fatal(err)
	}
	if _, err := ds[1].Enable("msgs_sent", resource.WholeProgram()); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ds[0].ranks) != 1 || len(ds[1].ranks) != 1 {
		t.Errorf("adoption counts: %d/%d", len(ds[0].ranks), len(ds[1].ranks))
	}
	total := 0.0
	for _, s := range rec.samples {
		if s.Metric == "msgs_sent" {
			total += s.Delta
		}
	}
	if total != 100 {
		t.Errorf("sampled msgs = %v, want 100", total)
	}
}

func TestDaemonResourceUpdates(t *testing.T) {
	eng, w, ds, rec := rig(t, mpi.LAM, DefaultConfig())
	w.Register("p", pingProgram(20))
	if _, err := w.LaunchN("p", 2, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var sawProc, sawFunc, sawEdge, sawExit bool
	for _, u := range rec.updates {
		switch {
		case u.Kind == datasource.UpAddResource && u.Path == "/Machine/node0/p{0}":
			sawProc = true
		case u.Kind == datasource.UpAddResource && u.Path == "/Code/app.c/produce":
			sawFunc = true
		case u.Kind == datasource.UpCallEdge && u.Caller == "produce":
			sawEdge = true
		case u.Kind == datasource.UpProcessExit:
			sawExit = true
		}
	}
	if !sawProc || !sawFunc || !sawExit {
		t.Errorf("updates missing: proc=%v func=%v exit=%v", sawProc, sawFunc, sawExit)
	}
	_ = sawEdge // produce has no traced callees in this program
}

func TestDaemonDisableRemovesProbes(t *testing.T) {
	eng, w, ds, _ := rig(t, mpi.LAM, DefaultConfig())
	w.Register("p", pingProgram(200))
	if _, err := w.LaunchN("p", 2, nil); err != nil {
		t.Fatal(err)
	}
	focus := resource.WholeProgram()
	if _, err := ds[0].Enable("msgs_sent", focus); err != nil {
		t.Fatal(err)
	}
	// Disable mid-run; probe executions stop growing afterwards.
	var at1s int64
	eng.At(sim.Time(1*sim.Second), func() {
		ds[0].Disable("msgs_sent", focus)
		at1s = ds[0].Stats().ProbeExecs
	})
	for _, d := range ds {
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Only the tag-discovery-free rig runs here, so executions equal the
	// metric's; after disable they must not grow.
	if got := ds[0].Stats().ProbeExecs; got != at1s {
		t.Errorf("probe executions grew after disable: %d → %d", at1s, got)
	}
}

func TestDaemonEnableUnknownMetric(t *testing.T) {
	_, _, ds, _ := rig(t, mpi.LAM, DefaultConfig())
	if _, err := ds[0].Enable("no_such_metric", resource.WholeProgram()); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestDaemonMachineFocusPlacement(t *testing.T) {
	eng, w, ds, rec := rig(t, mpi.LAM, DefaultConfig())
	w.Register("p", pingProgram(50))
	if _, err := w.LaunchN("p", 2, nil); err != nil {
		t.Fatal(err)
	}
	// Focus restricted to node1: only p{1} gets instrumented.
	focus := resource.WholeProgram().WithMachine("/Machine/node1/p{1}")
	for _, d := range ds {
		if _, err := d.Enable("msgs_recv", focus); err != nil {
			t.Fatal(err)
		}
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.samples {
		if s.Proc != "p{1}" {
			t.Errorf("sample from %s leaked through machine focus", s.Proc)
		}
	}
}

func TestSpawnAttachDelaysAdoption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Spawn = SpawnAttach
	eng, w, ds, _ := rig(t, mpi.LAM, cfg)
	w.Register("child", func(r *mpi.Rank, _ []string) { r.Compute(200 * sim.Millisecond) })
	w.Register("p", func(r *mpi.Rank, _ []string) {
		if _, err := r.World().Spawn(r, "child", nil, 2, nil, 0); err != nil {
			t.Error(err)
		}
	})
	if _, err := w.LaunchN("p", 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range ds {
		total += len(d.ranks)
	}
	if total != 3 { // parent + 2 children eventually adopted
		t.Errorf("adopted %d processes, want 3", total)
	}
}

func TestModuleWatchExtendsInstrumentation(t *testing.T) {
	// A module-level Code focus must pick up functions discovered after the
	// metric was enabled.
	eng, w, ds, rec := rig(t, mpi.LAM, DefaultConfig())
	w.Register("p", func(r *mpi.Rank, _ []string) {
		r.Call("late.c", "early", func() { r.Compute(300 * sim.Millisecond) })
		r.Call("late.c", "late", func() { r.Compute(300 * sim.Millisecond) })
	})
	if _, err := w.LaunchN("p", 1, nil); err != nil {
		t.Fatal(err)
	}
	focus := resource.WholeProgram().WithCode("/Code/late.c")
	if _, err := ds[0].Enable("cpu_inclusive", focus); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cpu := 0.0
	for _, s := range rec.samples {
		if s.Metric == "cpu_inclusive" {
			cpu += s.Delta
		}
	}
	if cpu < 0.55 { // both functions' compute, not just the first
		t.Errorf("module cpu = %v, want ≈0.6 (both functions)", cpu)
	}
}

// A process adopted late is seeded with every function it called before,
// not just those on its stack at adoption: a module-level Code focus enabled
// afterwards instruments work, which was first called before adoption and is
// off the stack at 100 ms. Seeded from the stack, the sum was 0.
func TestLateAdoptionSeedsEveryCalledFunction(t *testing.T) {
	eng, w, ds, rec := rig(t, mpi.LAM, DefaultConfig())
	w.Register("p", func(r *mpi.Rank, _ []string) {
		for i := 0; i < 10; i++ {
			r.Call("late.c", "work", func() { r.Compute(30 * sim.Millisecond) })
			r.Compute(30 * sim.Millisecond)
		}
	})
	for _, d := range ds {
		d.DelayAttachUntil(sim.Time(100 * sim.Millisecond))
	}
	if _, err := w.LaunchN("p", 1, nil); err != nil {
		t.Fatal(err)
	}
	focus := resource.WholeProgram().WithCode("/Code/late.c")
	eng.At(sim.Time(400*sim.Millisecond), func() {
		for _, d := range ds {
			if _, err := d.Enable("cpu_inclusive", focus); err != nil {
				t.Error(err)
			}
		}
	})
	for _, d := range ds {
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cpu := 0.0
	for _, s := range rec.samples {
		if s.Metric == "cpu_inclusive" {
			cpu += s.Delta
		}
	}
	if math.Abs(cpu-0.09) > 1e-3 { // the three calls after 400 ms, plus probe cost
		t.Errorf("module cpu after a late adoption = %v, want 0.09", cpu)
	}
}

// Each daemon that adopts a process reports each function the process calls
// under /Code exactly once, in first-call order: functions first called
// before a delayed adoption, after it, and after a respawned incarnation
// re-adopted the process. Nothing filters duplicates: this holds because a
// first call fires once and adoption seeds from the called functions once.
func TestEachFunctionIsReportedOncePerAdoption(t *testing.T) {
	eng := sim.NewEngine(13)
	spec := cluster.DefaultSpec(2, 1)
	w := mpi.NewWorld(eng, spec, mpi.NewImpl(mpi.LAM))
	recs := []*recorder{{}, {}, {}} // node0, node1, node1's second incarnation
	var ds []*Daemon
	for node := range spec.Nodes {
		ds = append(ds, New(eng, node, spec.Nodes[node].Name, mdl.StdLib(), recs[node], DefaultConfig()))
		ds[node].DelayAttachUntil(sim.Time(100 * sim.Millisecond))
	}
	reg := AttachAll(w, ds)
	w.Register("p", func(r *mpi.Rank, _ []string) {
		for i := 0; i < 12; i++ {
			r.Call("app.c", fmt.Sprintf("f%d", i%6), func() { r.Compute(40 * sim.Millisecond) })
			if i >= 9 {
				r.Call("late.c", "g", func() { r.Compute(sim.Millisecond) })
			}
			if err := r.World().Barrier(r); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := w.LaunchN("p", 2, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		d.Start()
	}
	var calledBeforeRespawn int
	eng.At(sim.Time(300*sim.Millisecond), func() {
		ds[1].Crash()
		d := New(eng, 1, spec.Nodes[1].Name, mdl.StdLib(), recs[2], DefaultConfig())
		d.SetIncarnation(2)
		reg.Replace(d)
		r := w.Ranks()[1]
		calledBeforeRespawn = len(r.Probes().CalledFunctions())
		d.Adopt(r)
		d.Start()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		r := w.Ranks()[min(i, 1)]
		var want, got []string
		for _, f := range r.Probes().CalledFunctions() {
			want = append(want, "/Code/"+f.Module+"/"+f.Name)
		}
		if i == 1 {
			want = want[:calledBeforeRespawn] // the first incarnation died at 300 ms
		}
		for _, u := range rec.updates {
			if u.Kind == datasource.UpAddResource && strings.HasPrefix(u.Path, "/Code/") {
				got = append(got, u.Path)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("daemon %d reported %v, want each called function once: %v", i, got, want)
		}
		if !slices.Contains(got, "/Code/app.c/f5") {
			t.Errorf("daemon %d never reported f5, first called after the adoption", i)
		}
	}
	if calledBeforeRespawn == len(w.Ranks()[1].Probes().CalledFunctions()) {
		t.Error("no function was first called after the respawn")
	}
}

// baseKindsMDL defines one metric per base kind, all over one user function.
const baseKindsMDL = `
resourceList t_work is procedure { "work" };
metric t_counter { name "t_counter"; units ops;
    base is counter { foreach func in t_work { append preinsn func.entry (* t_counter++; *) } } }
metric t_wall { name "t_wall"; units CPUs;
    base is walltimer { foreach func in t_work {
        append preinsn func.entry (* startWalltimer(t_wall); *)
        prepend preinsn func.return (* stopWalltimer(t_wall); *) } } }
metric t_proc { name "t_proc"; units CPUs;
    base is processtimer { foreach func in t_work {
        append preinsn func.entry (* startProcessTimer(t_proc); *)
        prepend preinsn func.return (* stopProcessTimer(t_proc); *) } } }
metric t_cpu { name "t_cpu"; units CPUs; base is cpuclock { } }
`

// The daemon reads each accumulator once per tick and ships both the
// cumulative value and its growth since the previous tick, so for every
// instance the shipped stream telescopes: Delta[0] == Value[0] and
// Value[k] - Value[k-1] == Delta[k], exactly — for counters, for timers
// sampled mid-interval, and for direct clock reads.
func TestSampleDeltasTelescopeToValues(t *testing.T) {
	lib, err := mdl.NewLibraryWithStd(baseKindsMDL)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(13)
	spec := cluster.DefaultSpec(1, 1)
	w := mpi.NewWorld(eng, spec, mpi.NewImpl(mpi.LAM))
	rec := &recorder{}
	cfg := DefaultConfig()
	cfg.SampleInterval = 100 * sim.Millisecond
	d := New(eng, 0, spec.Nodes[0].Name, lib, rec, cfg)
	AttachAll(w, []*Daemon{d})
	// Each call computes for 130 ms and then blocks for 40 ms inside the
	// function, so every 100 ms tick but the first lands at a different
	// phase of a call and the timers are running across most boundaries.
	w.Register("p", func(r *mpi.Rank, _ []string) {
		for i := 0; i < 5; i++ {
			r.Call("app.c", "work", func() {
				r.Compute(130 * sim.Millisecond)
				r.IdleWait(40 * sim.Millisecond)
			})
		}
	})
	if _, err := w.LaunchN("p", 1, nil); err != nil {
		t.Fatal(err)
	}
	kinds := []string{"t_counter", "t_wall", "t_proc", "t_cpu"}
	for _, m := range kinds {
		if _, err := d.Enable(m, resource.WholeProgram()); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	final := map[string]float64{}
	for _, m := range kinds {
		var prev float64
		n := 0
		for _, s := range rec.samples {
			if s.Metric != m {
				continue
			}
			if s.Value-prev != s.Delta {
				t.Errorf("%s sample %d at %v: Value %v - previous Value %v != Delta %v", m, n, s.Time, s.Value, prev, s.Delta)
			}
			if m == "t_wall" && n == 0 && (s.Time >= sim.Time(130*sim.Millisecond) || s.Value <= 0) {
				t.Errorf("first t_wall sample (t=%v, value %v) should catch the timer running inside the first call", s.Time, s.Value)
			}
			prev = s.Value
			n++
		}
		if n < 5 {
			t.Errorf("%s shipped %d samples, want at least 5 ticks", m, n)
		}
		final[m] = prev
	}
	if final["t_counter"] != 5 {
		t.Errorf("t_counter = %v, want 5 calls", final["t_counter"])
	}
	// Wall time in work is 5 × 170 ms; CPU time in work excludes the blocked
	// 40 ms per call and is what the process clock read in total.
	if got := final["t_wall"]; got < 0.85 || got > 0.86 {
		t.Errorf("t_wall = %v, want ≈0.85 s", got)
	}
	if got := final["t_proc"]; got < 0.65 || got > 0.66 || got > final["t_cpu"] {
		t.Errorf("t_proc = %v (t_cpu %v), want ≈0.65 s and no more than the process clock", got, final["t_cpu"])
	}
}
