package daemon_test

// The sampling tick is the tool's steady-state cost: every tick the daemon
// samples every live instance and forwards one batch per process. Once warm it
// must allocate nothing — the batch is the daemon's own, reused while no queue
// holds it, and neither the front end nor the recorder keeps it.

import (
	"path/filepath"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/daemon"
	"pperf/internal/frontend"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// tickRig is one node running two ping-pong ranks under an in-process front
// end, with four metrics enabled on the whole program and on each process:
// eight instances a rank. The engine has run one virtual second, so both ranks
// are adopted, instrumented and mid-run.
func tickRig(t *testing.T, rec *perfdb.StreamRecorder) *daemon.Daemon {
	t.Helper()
	eng := sim.NewEngine(13)
	spec := cluster.DefaultSpec(1, 2)
	node := spec.Nodes[0].Name
	w := mpi.NewWorld(eng, spec, mpi.NewImpl(mpi.LAM))
	fe := frontend.New()
	if rec != nil {
		fe.SetRecorder(rec)
	}
	d := daemon.New(eng, 0, node, mdl.StdLib(), fe, daemon.DefaultConfig())
	fe.SetDaemons(daemon.AttachAll(w, []*daemon.Daemon{d}))
	w.Register("pp", func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < 1000; i++ {
			if r.Rank() == 0 {
				r.Compute(10 * sim.Millisecond)
				c.Send(r, nil, 8, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 8, mpi.Byte, 0, 0)
			}
		}
	})
	if _, err := w.LaunchN("pp", 2, nil); err != nil {
		t.Fatal(err)
	}
	whole := resource.WholeProgram()
	foci := []resource.Focus{whole, whole.WithMachine("/Machine/" + node + "/pp{0}"), whole.WithMachine("/Machine/" + node + "/pp{1}")}
	for _, m := range []string{"msgs_sent", "msg_bytes_sent", "sync_wait_inclusive", "cpu_inclusive"} {
		for _, f := range foci {
			if _, err := fe.EnableMetric(m, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.At(eng.Now().Add(sim.Second), eng.Stop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Processes != 2 || st.Enabled != 12 {
		t.Fatalf("rig holds %d processes and %d enables, want 2 and 12", st.Processes, st.Enabled)
	}
	return d
}

func TestSamplingTickAllocatesNothing(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		d := tickRig(t, nil)
		d.Tick() // the batch grows to its size once
		if n := testing.AllocsPerRun(100, d.Tick); n != 0 {
			t.Errorf("one sampling tick: %v allocs, want 0", n)
		}
	})

	// With a recorder armed a tick records two events, so a 512-event chunk
	// fills every 256 ticks. The one cost left is the flush's fresh
	// gob.Encoder, which the format needs (each chunk carries its own type
	// table): 29 objects a chunk with go1.24, so the budget is 40 a chunk,
	// 0.16 a tick.
	t.Run("recorded", func(t *testing.T) {
		const ticksPerChunk = perfdb.DefaultFlushEvents / 2
		const chunkBudget = 40
		rec, err := perfdb.NewStreamRecorder(filepath.Join(t.TempDir(), "tick.ppdb"))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Abort()
		d := tickRig(t, rec)
		chunk := func() {
			for i := 0; i < ticksPerChunk; i++ {
				d.Tick()
			}
		}
		chunk() // past the first chunk: every buffer at its high-water size
		before := rec.EventCount()
		n := testing.AllocsPerRun(4, chunk) // and one warm-up run: five chunks
		if got, want := rec.EventCount()-before, 5*perfdb.DefaultFlushEvents; got != want {
			t.Fatalf("five chunks' worth of ticks recorded %d events, want %d", got, want)
		}
		if n > chunkBudget {
			t.Errorf("%d recorded ticks (one chunk): %v allocs, want at most %d (gob's per-chunk encoder)", ticksPerChunk, n, chunkBudget)
		}
		t.Logf("one chunk of recorded ticks: %v allocs, %.2f a tick", n, n/ticksPerChunk)
	})
}
