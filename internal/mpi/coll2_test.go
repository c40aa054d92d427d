package mpi

import (
	"bytes"
	"strings"
	"testing"

	"pperf/internal/sim"
)

func TestSsendWaitsForReceiver(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	var elapsed sim.Duration
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			t0 := r.Now()
			if err := c.Ssend(r, []byte{1}, 1, Byte, 1, 0); err != nil {
				t.Error(err)
			}
			elapsed = r.Now().Sub(t0)
		} else {
			r.Compute(1 * sim.Second)
			c.Recv(r, nil, 1, Byte, 0, 0)
		}
	})
	// Unlike eager MPI_Send, Ssend must wait ≈1s for the receive to start
	// even for a 1-byte message.
	if elapsed < 900*sim.Millisecond {
		t.Errorf("Ssend took %v; synchronous mode must wait for the receiver", elapsed)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		w := newTestWorld(t, MPICH2, 3, 2)
		var gathered []byte
		slices := make([][]byte, n)
		runProgram(t, w, n, func(r *Rank, _ []string) {
			c := r.World()
			mine := []byte{byte(r.Rank() + 10), byte(r.Rank() + 20)}
			g, err := c.Gather(r, mine, 2, Byte, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if r.Rank() == 0 {
				gathered = g
			}
			sl, err := c.Scatter(r, g, 2, Byte, 0)
			if err != nil {
				t.Error(err)
				return
			}
			slices[r.Rank()] = sl
		})
		if len(gathered) != 2*n {
			t.Fatalf("n=%d gathered len %d", n, len(gathered))
		}
		for i := 0; i < n; i++ {
			want := []byte{byte(i + 10), byte(i + 20)}
			if gathered[2*i] != want[0] || gathered[2*i+1] != want[1] {
				t.Errorf("n=%d gathered[%d] = %v", n, i, gathered[2*i:2*i+2])
			}
			// Scatter of the gathered data returns each rank its own slice.
			if !bytes.Equal(slices[i], want) {
				t.Errorf("n=%d scatter slice %d = %v, want %v", n, i, slices[i], want)
			}
		}
	}
}

func TestAllgather(t *testing.T) {
	const n = 4
	w := newTestWorld(t, LAM, 2, 2)
	results := make([][]byte, n)
	runProgram(t, w, n, func(r *Rank, _ []string) {
		c := r.World()
		out, err := c.Allgather(r, []byte{byte(r.Rank())}, 1, Byte)
		if err != nil {
			t.Error(err)
			return
		}
		results[r.Rank()] = out
	})
	for rk, out := range results {
		if len(out) != n {
			t.Fatalf("rank %d got %v", rk, out)
		}
		for i := 0; i < n; i++ {
			if out[i] != byte(i) {
				t.Errorf("rank %d slot %d = %d", rk, i, out[i])
			}
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		w := newTestWorld(t, MPICH, 2, 2)
		results := make([][]byte, n)
		runProgram(t, w, n, func(r *Rank, _ []string) {
			c := r.World()
			// Rank i sends byte 10*i+j to rank j.
			data := make([]byte, n)
			for j := 0; j < n; j++ {
				data[j] = byte(10*r.Rank() + j)
			}
			out, err := c.Alltoall(r, data, 1, Byte)
			if err != nil {
				t.Error(err)
				return
			}
			results[r.Rank()] = out
		})
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if results[j][i] != byte(10*i+j) {
					t.Errorf("n=%d rank %d slot %d = %d, want %d", n, j, i, results[j][i], 10*i+j)
				}
			}
		}
	}
}

func TestWtimeAndProcessorName(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		t0 := r.Wtime()
		r.Compute(500 * sim.Millisecond)
		if d := r.Wtime() - t0; d < 0.49 || d > 0.52 {
			t.Errorf("Wtime delta = %v", d)
		}
		if r.Wtick() <= 0 {
			t.Error("Wtick must be positive")
		}
		want := "node" + string(rune('0'+r.Node()))
		if r.ProcessorName() != want {
			t.Errorf("processor name = %q, want %q", r.ProcessorName(), want)
		}
	})
}

func TestProbeAndGetCount(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			r.Compute(500 * sim.Millisecond)
			c.Send(r, nil, 6, Int, 1, 9)
			return
		}
		// A source outside the group is refused with Recv's error.
		_, want := c.Recv(r, nil, 6, Int, 2, 9)
		if want == nil || !strings.Contains(want.Error(), "rank 2 out of range [0,2)") {
			t.Errorf("Recv from rank 2 of 2: %v", want)
			return
		}
		if found, _, err := c.Iprobe(r, 2, 9); found || err == nil || err.Error() != want.Error() {
			t.Errorf("Iprobe from rank 2 of 2 = %v, %v; want %v", found, err, want)
		}
		if _, err := c.ProbeMsg(r, 2, AnyTag); err == nil || err.Error() != want.Error() {
			t.Errorf("Probe from rank 2 of 2 = %v; want %v", err, want)
		}
		// Iprobe before arrival: nothing pending.
		if found, _, _ := c.Iprobe(r, 0, 9); found {
			t.Error("Iprobe should find nothing yet")
		}
		// Blocking probe waits for arrival and reports size without consuming.
		t0 := r.Now()
		st, err := c.ProbeMsg(r, AnySource, AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		if r.Now().Sub(t0) < 400*sim.Millisecond {
			t.Error("Probe should have blocked for the message")
		}
		if st.Source != 0 || st.Tag != 9 || st.GetCount(Int) != 6 {
			t.Errorf("status = %+v count=%d", st, st.GetCount(Int))
		}
		if st.GetCount(Double) != 3 || st.GetCount(Byte) != 24 {
			t.Errorf("counts: double=%d byte=%d", st.GetCount(Double), st.GetCount(Byte))
		}
		// Iprobe now sees it; the message is still receivable.
		if found, st2, _ := c.Iprobe(r, 0, 9); !found || st2.Source != 0 {
			t.Error("Iprobe should see the pending message")
		}
		if _, err := c.Recv(r, nil, 6, Int, 0, 9); err != nil {
			t.Error(err)
		}
		if r.unexpected.len() != 0 {
			t.Error("queue should be drained")
		}
	})
}

func TestGetCountUndefined(t *testing.T) {
	st := &Status{bytes: 7}
	if st.GetCount(Int) != -1 {
		t.Error("non-divisible count should be -1 (MPI_UNDEFINED)")
	}
}

func TestMPITest(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			r.Compute(500 * sim.Millisecond)
			c.Send(r, nil, 1, Byte, 1, 0)
			return
		}
		rq, _ := c.Irecv(r, nil, 1, Byte, 0, 0)
		if r.Test(rq) {
			t.Error("Test should be false before arrival")
		}
		r.Compute(1 * sim.Second)
		if !r.Test(rq) {
			t.Error("Test should be true after arrival")
		}
	})
}
