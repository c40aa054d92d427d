package mpi

import (
	"strings"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/probe"
	"pperf/internal/sim"
)

// newTestWorld builds a world with nNodes×cpus and the given personality.
func newTestWorld(t *testing.T, kind ImplKind, nNodes, cpus int) *World {
	t.Helper()
	eng := sim.NewEngine(7)
	return NewWorld(eng, cluster.DefaultSpec(nNodes, cpus), NewImpl(kind))
}

// runProgram registers prog under "main", launches n ranks, and runs.
func runProgram(t *testing.T, w *World, n int, prog Program) {
	t.Helper()
	w.Register("main", prog)
	if _, err := w.LaunchN("main", n, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvDeliversData(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var got []byte
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			if err := c.Send(r, []byte("hello"), 5, Byte, 1, 42); err != nil {
				t.Error(err)
			}
		} else {
			st, err := c.Recv(r, nil, 5, Byte, 0, 42)
			if err != nil {
				t.Error(err)
			}
			got = st.Data()
		}
	})
	if string(got) != "hello" {
		t.Errorf("got %q, want hello", got)
	}
}

func TestRecvBlocksUntilArrival(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var recvDone, sendStart sim.Time
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			r.Compute(1 * sim.Second)
			sendStart = r.Now()
			c.Send(r, nil, 4, Byte, 1, 0)
		} else {
			c.Recv(r, nil, 4, Byte, 0, 0)
			recvDone = r.Now()
		}
	})
	if recvDone <= sendStart {
		t.Errorf("recv completed at %v, before send at %v", recvDone, sendStart)
	}
}

func TestEagerSendDoesNotBlock(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var sendElapsed sim.Duration
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			t0 := r.Now()
			c.Send(r, nil, 4, Byte, 1, 0) // small: eager
			sendElapsed = r.Now().Sub(t0)
		} else {
			r.Compute(5 * sim.Second) // receiver busy for a long time
			c.Recv(r, nil, 4, Byte, 0, 0)
		}
	})
	if sendElapsed > 100*sim.Millisecond {
		t.Errorf("eager send took %v; should return without waiting for the recv", sendElapsed)
	}
}

func TestRendezvousSendBlocksForReceiver(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	big := w.Impl.Cost.EagerThreshold + 1
	var sendElapsed sim.Duration
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			t0 := r.Now()
			c.Send(r, nil, big, Byte, 1, 0)
			sendElapsed = r.Now().Sub(t0)
		} else {
			r.Compute(2 * sim.Second)
			c.Recv(r, nil, big, Byte, 0, 0)
		}
	})
	if sendElapsed < 1*sim.Second {
		t.Errorf("rendezvous send took only %v; should wait ~2s for receiver", sendElapsed)
	}
}

func TestEagerFlowControlBlocksSender(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	// Each 4-byte message charges 4+header bytes against the flow window.
	window := w.Impl.Cost.FlowCreditBytes / (4 + w.Impl.Cost.MsgHeaderBytes)
	total := window * 3
	var sendElapsed sim.Duration
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			t0 := r.Now()
			for i := 0; i < total; i++ {
				c.Send(r, nil, 4, Byte, 1, 0)
			}
			sendElapsed = r.Now().Sub(t0)
		} else {
			for i := 0; i < total; i++ {
				r.Compute(1 * sim.Millisecond) // slow consumer outside MPI
				c.Recv(r, nil, 4, Byte, 0, 0)
			}
		}
	})
	// Sender must have throttled to roughly the receiver's consumption
	// pace: it can run ahead by at most the window.
	minElapsed := sim.Duration(total-window-1) * sim.Millisecond
	if sendElapsed < minElapsed {
		t.Errorf("sender finished in %v; flow control should throttle it to ≥%v", sendElapsed, minElapsed)
	}
}

func TestFlowWindowDrainsWhileReceiverBlocked(t *testing.T) {
	// wrong-way's survival property: a receiver blocked inside MPI_Recv
	// drains the transport, so a burst larger than the flow window does not
	// deadlock even though the receiver matches the newest message first.
	w := newTestWorld(t, LAM, 2, 1)
	burst := w.Impl.Cost.FlowCreditBytes/(4+w.Impl.Cost.MsgHeaderBytes) + 50
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			for m := 0; m < burst; m++ {
				c.Send(r, nil, 4, Byte, 1, m)
			}
		} else {
			for m := burst - 1; m >= 0; m-- {
				c.Recv(r, nil, 4, Byte, 0, m)
			}
		}
	})
}

func TestMessageOrderFIFO(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var tags []int
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(r, []byte{byte(i)}, 1, Byte, 1, i) // payload = tag
			}
		} else {
			for i := 0; i < 10; i++ {
				st, _ := c.Recv(r, nil, 1, Byte, 0, AnyTag)
				tags = append(tags, int(st.Data()[0]))
			}
		}
	})
	for i, tag := range tags {
		if tag != i {
			t.Fatalf("tags = %v, want FIFO order", tags)
		}
	}
}

func TestRecvByTagReordersAndQueuesUnexpected(t *testing.T) {
	// wrong-way pattern: receiver asks for the LAST tag first.
	w := newTestWorld(t, LAM, 2, 1)
	const n = 8
	var order []int
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(r, nil, 1, Byte, 1, i)
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				c.Recv(r, nil, 1, Byte, 0, i)
				order = append(order, i)
			}
			if r.unexpected.len() != 0 {
				t.Errorf("unexpected queue not drained: %d", r.unexpected.len())
			}
		}
	})
	if len(order) != n || order[0] != n-1 {
		t.Errorf("order = %v", order)
	}
}

func TestAnySource(t *testing.T) {
	w := newTestWorld(t, LAM, 3, 1)
	seen := map[int]bool{}
	runProgram(t, w, 3, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			for i := 0; i < 2; i++ {
				st, err := c.Recv(r, nil, 1, Byte, AnySource, 7)
				if err != nil {
					t.Error(err)
				}
				seen[st.Source] = true
			}
		} else {
			c.Send(r, nil, 1, Byte, 0, 7)
		}
	})
	if !seen[1] || !seen[2] {
		t.Errorf("sources seen = %v, want both 1 and 2", seen)
	}
}

func TestIsendIrecvWait(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var data []byte
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			rq, err := c.Isend(r, []byte{9, 8, 7}, 3, Byte, 1, 1)
			if err != nil {
				t.Error(err)
			}
			r.Compute(10 * sim.Millisecond)
			r.Wait(rq)
		} else {
			data = make([]byte, 3)
			rq, err := c.Irecv(r, data, 3, Byte, 0, 1)
			if err != nil {
				t.Error(err)
			}
			r.Wait(rq)
		}
	})
	if len(data) != 3 || data[0] != 9 {
		t.Errorf("data = %v", data)
	}
}

func TestSendrecvBidirectionalNoDeadlock(t *testing.T) {
	for _, kind := range []ImplKind{LAM, MPICH, MPICH2} {
		w := newTestWorld(t, kind, 2, 1)
		big := w.Impl.Cost.EagerThreshold * 2 // rendezvous both ways
		runProgram(t, w, 2, func(r *Rank, _ []string) {
			c := r.World()
			other := 1 - r.Rank()
			if _, err := c.Sendrecv(r, nil, big, Byte, other, 3,
				nil, big, Byte, other, 3); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, kind := range []ImplKind{LAM, MPICH, MPICH2} {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, kind, 3, 2)
			after := make([]sim.Time, 5)
			runProgram(t, w, 5, func(r *Rank, _ []string) {
				c := r.World()
				r.Compute(sim.Duration(r.Rank()+1) * 100 * sim.Millisecond)
				if err := c.Barrier(r); err != nil {
					t.Error(err)
				}
				after[r.Rank()] = r.Now()
			})
			// Nobody leaves before the slowest (500ms) arrives.
			for i, tt := range after {
				if tt < sim.Time(500*sim.Millisecond) {
					t.Errorf("%s: rank %d left barrier at %v, before slowest arrival", kind, i, tt)
				}
			}
		})
	}
}

func TestMPICHBarrierUsesSendrecvProbes(t *testing.T) {
	// The tool can observe that MPICH implements PMPI_Barrier as a
	// collective communication over PMPI_Sendrecv (Fig 9).
	w := newTestWorld(t, MPICH, 2, 2)
	sendrecvInsideBarrier := 0
	runProgram(t, w, 4, func(r *Rank, _ []string) {
		if r.Rank() == 0 {
			r.Probes().Insert("PMPI_Sendrecv", probe.Entry, probe.Append, func(ev *probe.Event) {
				if ev.Proc.InFunction("PMPI_Barrier") {
					sendrecvInsideBarrier++
				}
			})
		}
		r.World().Barrier(r)
	})
	if sendrecvInsideBarrier == 0 {
		t.Error("expected PMPI_Sendrecv calls nested inside PMPI_Barrier for MPICH")
	}
}

func TestLAMBarrierUsesIsendWaitall(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 2)
	isendInside, sendrecvInside := 0, 0
	runProgram(t, w, 4, func(r *Rank, _ []string) {
		if r.Rank() == 1 {
			r.Probes().Insert("MPI_Isend", probe.Entry, probe.Append, func(ev *probe.Event) {
				if ev.Proc.InFunction("MPI_Barrier") {
					isendInside++
				}
			})
			r.Probes().Insert("MPI_Sendrecv", probe.Entry, probe.Append, func(ev *probe.Event) {
				sendrecvInside++
			})
		}
		r.World().Barrier(r)
	})
	if isendInside == 0 {
		t.Error("LAM barrier should nest MPI_Isend")
	}
	if sendrecvInside != 0 {
		t.Error("LAM barrier should not use MPI_Sendrecv")
	}
}

func TestPMPINameResolution(t *testing.T) {
	// MPICH's weak-symbol default resolves user calls to PMPI_* names
	// (§4.1.1); LAM exposes MPI_* names.
	wm := newTestWorld(t, MPICH, 2, 1)
	sawPMPI := false
	// Two listeners: function discovery reaches every set of hooks.
	heard := 0
	wm.AddHooks(&Hooks{FunctionDiscovered: func(_ *Rank, f *probe.Function) {
		if f.Name == "PMPI_Send" {
			sawPMPI = true
		}
		if f.Name == "MPI_Send" {
			t.Error("MPICH should resolve MPI_Send to PMPI_Send")
		}
	}})
	wm.AddHooks(&Hooks{FunctionDiscovered: func(_ *Rank, f *probe.Function) {
		if f.Name == "PMPI_Send" {
			heard++
		}
	}})
	wm.Register("main", func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			c.Send(r, nil, 1, Byte, 1, 0)
		} else {
			c.Recv(r, nil, 1, Byte, 0, 0)
		}
	})
	if _, err := wm.LaunchN("main", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := wm.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawPMPI || heard != 1 {
		t.Errorf("PMPI_Send under MPICH: first listener saw it: %v; second heard it %d times, want once (one sender)", sawPMPI, heard)
	}
}

func TestSocketIOShowsReadWriteCalls(t *testing.T) {
	// MPICH's blocking waits appear inside libc read/write (Fig 3's
	// ExcessiveIOBlockingTime); LAM's (sysv shared memory) do not.
	for _, tc := range []struct {
		kind ImplKind
		want bool
	}{{MPICH, true}, {LAM, false}} {
		w := newTestWorld(t, tc.kind, 2, 1)
		sawRead := false
		runProgram(t, w, 2, func(r *Rank, _ []string) {
			c := r.World()
			if r.Rank() == 0 {
				r.Compute(100 * sim.Millisecond)
				c.Send(r, nil, 1, Byte, 1, 0)
			} else {
				r.Probes().Insert("read", probe.Entry, probe.Append, func(*probe.Event) {
					sawRead = true
				})
				c.Recv(r, nil, 1, Byte, 0, 0) // blocks → read under MPICH
			}
		})
		if sawRead != tc.want {
			t.Errorf("%s: sawRead = %v, want %v", tc.kind, sawRead, tc.want)
		}
	}
}

func TestBcastDistributesData(t *testing.T) {
	w := newTestWorld(t, MPICH2, 3, 2)
	got := make([][]byte, 5)
	runProgram(t, w, 5, func(r *Rank, _ []string) {
		c := r.World()
		var data []byte
		if r.Rank() == 2 {
			data = []byte("bcast-payload")
		}
		out, err := c.Bcast(r, data, 13, Byte, 2)
		if err != nil {
			t.Error(err)
		}
		got[r.Rank()] = out
	})
	for i, d := range got {
		if string(d) != "bcast-payload" {
			t.Errorf("rank %d got %q", i, d)
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		w := newTestWorld(t, LAM, 4, 2)
		sums := make([]float64, n)
		runProgram(t, w, n, func(r *Rank, _ []string) {
			c := r.World()
			vals := []float64{float64(r.Rank() + 1)}
			res, err := c.Reduce(r, vals, Double, OpSum, 0)
			if err != nil {
				t.Error(err)
			}
			if r.Rank() == 0 {
				want := float64(n*(n+1)) / 2
				if res[0] != want {
					t.Errorf("n=%d Reduce = %v, want %v", n, res[0], want)
				}
			}
			all, err := c.Allreduce(r, vals, Double, OpSum)
			if err != nil {
				t.Error(err)
			}
			sums[r.Rank()] = all[0]
		})
		want := float64(n*(n+1)) / 2
		for i := 0; i < n; i++ {
			if sums[i] != want {
				t.Errorf("n=%d rank %d Allreduce = %v, want %v", n, i, sums[i], want)
			}
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	w := newTestWorld(t, MPICH, 2, 2)
	runProgram(t, w, 4, func(r *Rank, _ []string) {
		c := r.World()
		vals := []float64{float64(r.Rank())}
		mx, err := c.Allreduce(r, vals, Double, OpMax)
		if err != nil || mx[0] != 3 {
			t.Errorf("max = %v err=%v", mx, err)
		}
		mn, err := c.Allreduce(r, vals, Double, OpMin)
		if err != nil || mn[0] != 0 {
			t.Errorf("min = %v err=%v", mn, err)
		}
	})
}

// Every name an ImplKind prints parses back to that kind, as do the short
// forms, in any case; anything else is refused.
func TestParseImplReadsEveryPrintedName(t *testing.T) {
	for k := LAM; k <= Reference; k++ {
		for _, name := range []string{k.String(), strings.ToLower(k.String()), strings.ToUpper(k.String())} {
			if got, err := ParseImpl(name); got != k || err != nil {
				t.Errorf("ParseImpl(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	for name, want := range map[string]ImplKind{"lam": LAM, "LAM": LAM, "ref": Reference, "Ref": Reference} {
		if got, err := ParseImpl(name); got != want || err != nil {
			t.Errorf("ParseImpl(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "openmpi", "unknown", "mpich3", " lam"} {
		if _, err := ParseImpl(name); err == nil {
			t.Errorf("ParseImpl(%q) accepted", name)
		}
	}
}
