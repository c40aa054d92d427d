package daemon_test

// The sampling tick is the tool's steady-state cost: every tick the daemon
// samples every live instance and forwards one batch per process. Once warm it
// must allocate nothing — the batch is the daemon's own, reused while no queue
// holds it, and neither the front end nor the recorder keeps it.

import (
	"path/filepath"
	"strings"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/daemon"
	"pperf/internal/frontend"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// tickRig is one node running two ping-pong ranks under an in-process front
// end, with four metrics enabled on the whole program and on each process:
// eight instances a rank. The ranks ping-pong for one virtual second and then
// both wait for a message nobody sends, so the run ends in a deadlock with
// both ranks adopted, instrumented and mid-run.
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
	fe.SetDaemons(daemon.AttachAll(w, daemon.SpawnIntercept, d))
	w.Register("pp", func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < 100; i++ {
			if r.Rank() == 0 {
				r.Compute(10 * sim.Millisecond)
				c.Send(r, nil, 8, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 8, mpi.Byte, 0, 0)
			}
		}
		c.Recv(r, nil, 8, mpi.Byte, 1-r.Rank(), 1)
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
	if err := eng.Run(); err == nil || !strings.Contains(err.Error(), "deadlock at 1.003s") {
		t.Fatalf("run = %v, want both ranks waiting at 1.003s", err)
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
	// fills every 256 ticks. Its flush packs the chunk's events through the
	// writer's scratch too, so a chunk of ticks costs nothing either.
	t.Run("recorded", func(t *testing.T) {
		const ticksPerChunk = perfdb.DefaultFlushEvents / 2
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
		if n != 0 {
			t.Errorf("%d recorded ticks (one chunk): %v allocs, want 0", ticksPerChunk, n)
		}
		t.Logf("one chunk of recorded ticks: %v allocs, %.2f a tick", n, n/ticksPerChunk)
	})
}

// A shard ships through the daemon's one scratch Shard: over a healthy
// in-process transport, a ship at the watermark costs the shard's packed
// bytes — their one exact-size copy, which the front end's timeline keeps —
// and no Shard of its own.
func TestShippingAShardAllocatesNoShard(t *testing.T) {
	eng := sim.NewEngine(1)
	fe := frontend.New()
	d := daemon.New(eng, 0, "node0", mdl.StdLib(), fe, daemon.DefaultConfig())
	tr := trace.New(&trace.Config{RingCapacity: 8, FlushWatermark: 4})
	d.EnableTracing(tr)
	ship := func() {
		for range 4 { // the fourth span reaches the watermark
			tr.Transport("p{0}", "node0", "m", eng.Now())
		}
	}
	ship() // the ring and the track grow once
	if n := testing.AllocsPerRun(100, ship); n != 1 {
		t.Errorf("shipping one 4-span shard: %v allocs, want 1 (its packed bytes)", n)
	}
	if st := fe.Timeline().Stats(); st.Shards != 102 {
		t.Errorf("the front end ingested %d shards, want 102", st.Shards)
	}
}
