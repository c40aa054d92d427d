package mpi

import (
	"errors"
	"testing"

	"pperf/internal/sim"
)

func TestSpawnCreatesChildrenWithIntercomm(t *testing.T) {
	w := newTestWorld(t, LAM, 3, 2)
	childRanks := map[int]bool{}
	parentSawChildren := 0
	w.Register("child", func(r *Rank, args []string) {
		childRanks[r.Rank()] = true
		parent := r.GetParent()
		if parent == nil {
			t.Error("child should have a parent intercommunicator")
			return
		}
		if len(args) != 1 || args[0] != "-x" {
			t.Errorf("child args = %v", args)
		}
		// Send a hello to parent rank 0 over the intercommunicator.
		parent.Send(r, nil, 1, Byte, 0, 5)
	})
	w.Register("parent", func(r *Rank, _ []string) {
		c := r.World()
		inter, err := c.Spawn(r, "child", []string{"-x"}, 3, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if inter.RemoteSize() != 3 {
			t.Errorf("remote size = %d, want 3", inter.RemoteSize())
		}
		if r.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if _, err := inter.Recv(r, nil, 1, Byte, AnySource, 5); err != nil {
					t.Error(err)
				}
				parentSawChildren++
			}
		}
	})
	if _, err := w.LaunchN("parent", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(childRanks) != 3 {
		t.Errorf("child ranks = %v, want 3 distinct", childRanks)
	}
	if parentSawChildren != 3 {
		t.Errorf("parent received %d hellos", parentSawChildren)
	}
}

func TestSpawnUnsupportedOnMPICH2(t *testing.T) {
	w := newTestWorld(t, MPICH2, 2, 1)
	var err error
	w.Register("child", func(r *Rank, _ []string) {})
	runProgram(t, w, 1, func(r *Rank, _ []string) {
		_, err = r.World().Spawn(r, "child", nil, 2, nil, 0)
	})
	var uns *ErrUnsupported
	if !errors.As(err, &uns) {
		t.Errorf("spawn error = %v, want ErrUnsupported", err)
	}
}

func TestSpawnUnknownProgram(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var err error
	runProgram(t, w, 1, func(r *Rank, _ []string) {
		_, err = r.World().Spawn(r, "no-such-prog", nil, 1, nil, 0)
	})
	if err == nil {
		t.Error("spawning an unregistered program should fail")
	}
}

func TestSpawnIsCollective(t *testing.T) {
	// Non-root parents must synchronize with the root through the spawn.
	w := newTestWorld(t, LAM, 2, 2)
	exitTimes := make([]sim.Time, 3)
	w.Register("child", func(r *Rank, _ []string) {})
	runProgram(t, w, 3, func(r *Rank, _ []string) {
		if r.Rank() == 0 {
			r.Compute(1 * sim.Second) // root arrives late
		}
		if _, err := r.World().Spawn(r, "child", nil, 1, nil, 0); err != nil {
			t.Error(err)
		}
		exitTimes[r.Rank()] = r.Now()
	})
	for i, tt := range exitTimes {
		if tt < sim.Time(1*sim.Second) {
			t.Errorf("rank %d finished spawn at %v, before root arrived", i, tt)
		}
	}
}

func TestSpawnLAMSchemaPlacement(t *testing.T) {
	w := newTestWorld(t, LAM, 4, 1)
	w.FS["appschema"] = "node2\nnode3\n"
	childNodes := make([]int, 4)
	w.Register("child", func(r *Rank, _ []string) {
		childNodes[r.Rank()] = r.Node()
	})
	runProgram(t, w, 1, func(r *Rank, _ []string) {
		info := Info{"lam_spawn_file": "appschema"}
		if _, err := r.World().Spawn(r, "child", nil, 4, info, 0); err != nil {
			t.Error(err)
		}
	})
	// 4 children over schema [node2, node3] → 2,3,2,3.
	want := []int{2, 3, 2, 3}
	for i := range want {
		if childNodes[i] != want[i] {
			t.Errorf("childNodes = %v, want %v", childNodes, want)
			break
		}
	}
}

func TestSpawnInterceptorAddsOverhead(t *testing.T) {
	// The intercept method (tool daemon wrapping the spawn) inflates the
	// spawn operation's measured cost — §4.2.2's stated drawback.
	elapsed := func(intercept bool) sim.Duration {
		w := newTestWorld(t, LAM, 2, 1)
		if intercept {
			w.SpawnInterceptor = func(parent *Rank, maxprocs int) sim.Duration {
				return sim.Duration(maxprocs) * 50 * sim.Millisecond
			}
		}
		var d sim.Duration
		w.Register("child", func(r *Rank, _ []string) {})
		w.Register("main", func(r *Rank, _ []string) {
			t0 := r.Now()
			r.World().Spawn(r, "child", nil, 2, nil, 0)
			d = r.Now().Sub(t0)
		})
		if _, err := w.LaunchN("main", 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	plain, intercepted := elapsed(false), elapsed(true)
	if intercepted <= plain {
		t.Errorf("intercepted spawn (%v) should cost more than plain (%v)", intercepted, plain)
	}
}

func TestSpawnedHookAndProctable(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var hookChildren int
	w.AddHooks(&Hooks{
		Spawned: func(parent *Rank, children []*Rank) { hookChildren = len(children) },
	})
	w.Register("child", func(r *Rank, _ []string) {})
	runProgram(t, w, 1, func(r *Rank, _ []string) {
		r.World().Spawn(r, "child", nil, 2, nil, 0)
	})
	if hookChildren != 2 {
		t.Errorf("Spawned hook saw %d children, want 2", hookChildren)
	}
	// The world lists launcher + spawned processes, each with its global id.
	ranks := w.Ranks()
	if len(ranks) != 3 {
		t.Fatalf("world has %d ranks, want 3", len(ranks))
	}
	children := 0
	for i, r := range ranks {
		if r.global != i {
			t.Errorf("rank %d has global id %d", i, r.global)
		}
		if r.progName == "child" {
			children++
		}
	}
	if children != 2 {
		t.Errorf("spawned children = %d", children)
	}
}

func TestFileIO(t *testing.T) {
	w := newTestWorld(t, MPICH2, 2, 1)
	var ioElapsed sim.Duration
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		fl, err := c.FileOpen(r, "data.out", ModeCreate|ModeWROnly, nil)
		if err != nil {
			t.Fatal(err)
		}
		t0 := r.Now()
		if err := fl.WriteAt(r, int64(r.Rank())*1024, nil, 1024, Byte); err != nil {
			t.Error(err)
		}
		if err := fl.ReadAt(r, 0, make([]byte, 64), 64, Byte); err != nil {
			t.Error(err)
		}
		ioElapsed = r.Now().Sub(t0)
		if err := fl.Close(r); err != nil {
			t.Error(err)
		}
		if err := fl.WriteAt(r, 0, nil, 1, Byte); err == nil {
			t.Error("write after close should fail")
		}
	})
	// Each transfer blocks for the latency plus its bytes at the I/O
	// bandwidth: 1024 bytes written, then 64 read.
	im := w.Impl
	xfer := func(bytes int) sim.Duration {
		return im.IOLatency + sim.Duration(float64(bytes)/im.IOBandwidth*float64(sim.Second))
	}
	if want := xfer(1024) + xfer(64); ioElapsed != want {
		t.Errorf("file I/O took %v, want %v", ioElapsed, want)
	}
}

func TestCommSetNameHook(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var got string
	w.AddHooks(&Hooks{NameSet: func(r *Rank, obj any, name string) {
		if _, ok := obj.(*Comm); ok {
			got = name
		}
	}})
	runProgram(t, w, 1, func(r *Rank, _ []string) {
		r.World().SetName(r, "Parent&Child")
	})
	if got != "Parent&Child" {
		t.Errorf("NameSet got %q", got)
	}
}

func TestDeterministicTimings(t *testing.T) {
	run := func() sim.Time {
		w := newTestWorld(t, MPICH, 3, 2)
		var end sim.Time
		runProgram(t, w, 6, func(r *Rank, _ []string) {
			c := r.World()
			for i := 0; i < 50; i++ {
				if r.Rank() == 0 {
					for s := 1; s < 6; s++ {
						c.Recv(r, nil, 4, Byte, AnySource, 0)
					}
				} else {
					c.Send(r, nil, 4, Byte, 0, 0)
				}
				c.Barrier(r)
			}
			if r.Rank() == 0 {
				end = r.Now()
			}
		})
		return end
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs ended at %v and %v", a, b)
	}
}

// A root that is no rank of the communicator is an error on every rank,
// before anyone waits for a root that never comes; it must not hand back the
// result of an earlier spawn.
func TestSpawnWithBadRootErrs(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	w.Register("child", func(*Rank, []string) {})
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if _, err := c.Spawn(r, "child", nil, 1, nil, 0); err != nil {
			t.Error(err)
			return
		}
		for _, root := range []int{7, -1} {
			if _, err := c.Spawn(r, "child", nil, 1, nil, root); err == nil {
				t.Errorf("rank %d: Spawn with root %d on 2 ranks returned no error", r.Rank(), root)
			}
		}
	})
}
