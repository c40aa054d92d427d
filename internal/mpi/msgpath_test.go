package mpi

import (
	"strings"
	"testing"
	"unsafe"

	"pperf/internal/sim"
)

// A rendezvous send nobody receives deadlocks; the report must name the
// send's own tag (a send request's receive pattern is always 0).
func TestDeadlockReportNamesTheSendTag(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	w.Register("main", func(r *Rank, _ []string) {
		if r.Rank() == 0 {
			r.World().Send(r, nil, 1<<20, Byte, 1, 7)
		}
	})
	if _, err := w.LaunchN("main", 2, nil); err != nil {
		t.Fatal(err)
	}
	err := w.Eng.Run()
	if err == nil || !strings.Contains(err.Error(), "MPI_Send(tag=7, comm=1) on rank 0") {
		t.Errorf("run error = %v, want a deadlock naming MPI_Send(tag=7, comm=1) on rank 0", err)
	}
}

// A receive's status owns what it keeps of its message: Data and Source must
// stay right after the message and the request have gone back to their free
// lists and carried other traffic — for an eager and for a rendezvous
// receive.
func TestRequestOutlivesItsRecycledMessage(t *testing.T) {
	w := newTestWorld(t, LAM, 3, 1)
	big := make([]byte, 100000) // over the eager threshold
	big[0], big[len(big)-1] = 'B', 'E'
	const rounds = 50
	runProgram(t, w, 3, func(r *Rank, _ []string) {
		c := r.World()
		switch r.Rank() {
		case 1:
			c.Send(r, []byte("first"), 5, Byte, 0, 1)
			c.Send(r, big, len(big), Byte, 0, 2)
		case 2:
			for i := 0; i < rounds; i++ { // lock-step, so few messages are live at once
				c.Recv(r, nil, 0, Byte, 0, 4)
				c.Send(r, []byte{byte(i)}, 1, Byte, 0, 3)
			}
		case 0:
			small, _ := c.Recv(r, nil, 5, Byte, AnySource, 1)
			large, _ := c.Recv(r, nil, len(big), Byte, AnySource, 2)
			r.Compute(sim.Millisecond) // the eager message's credit gets home
			if len(w.freeMsgs) != w.msgsMade {
				t.Errorf("%d messages on the free list after two completed receives, want every one made (%d)", len(w.freeMsgs), w.msgsMade)
			}
			for i := 0; i < rounds; i++ {
				c.Send(r, nil, 0, Byte, 2, 4)
				st, _ := c.Recv(r, nil, 1, Byte, AnySource, 3)
				if d := st.Data(); len(d) != 1 || d[0] != byte(i) || st.Source != 2 {
					t.Errorf("round %d: data %v from %d", i, d, st.Source)
				}
			}
			if string(small.Data()) != "first" || small.Source != 1 {
				t.Errorf("eager status now reads %q from %d", small.Data(), small.Source)
			}
			if d := large.Data(); len(d) != len(big) || d[0] != 'B' || d[len(d)-1] != 'E' || large.Source != 1 {
				t.Errorf("rendezvous status now reads %d bytes from %d", len(d), large.Source)
			}
		}
	})
	// 2 + 2*rounds messages were sent; had none been reused, as many would
	// have been allocated.
	if n := len(w.freeMsgs); n > 6 {
		t.Errorf("free list holds %d messages: the recycled ones were not reused", n)
	}
	// So were the 4 + 4*rounds blocking calls' requests.
	if n := len(w.freeReqs); n > 6 {
		t.Errorf("free list holds %d requests: the recycled ones were not reused", n)
	}
}

// A receive's status is the message's, not the pattern's: a receive with
// AnySource or AnyTag reports the sender's rank and tag, and GetCount the
// elements sent — eager and rendezvous, from Recv and from Sendrecv.
func TestRecvStatusNamesTheMessage(t *testing.T) {
	w := newTestWorld(t, MPICH, 3, 1)
	sizes := []int{5, 3*w.Impl.Cost.EagerThreshold + 12} // eager, rendezvous
	runProgram(t, w, 3, func(r *Rank, _ []string) {
		c := r.World()
		if r.Rank() > 0 {
			for i, n := range sizes {
				c.Send(r, make([]byte, n), n, Byte, 0, 10*r.Rank()+i)
			}
			c.Sendrecv(r, make([]byte, 32), 8, Int, 0, 70+r.Rank(), nil, 0, Byte, 0, 80)
			return
		}
		check := func(how string, st Status, src, tag, bytes int) {
			t.Helper()
			if st.Source != src || st.Tag != tag || st.GetCount(Byte) != bytes || len(st.Data()) != bytes {
				t.Errorf("%s: status from %d, tag %d, %d bytes (%d of data); want %d, %d, %d",
					how, st.Source, st.Tag, st.GetCount(Byte), len(st.Data()), src, tag, bytes)
			}
		}
		for i, n := range sizes {
			st, err := c.Recv(r, nil, n, Byte, AnySource, AnyTag)
			if err != nil || st.Source < 1 || st.Source > 2 {
				t.Fatalf("Recv(AnySource, AnyTag): source %d, %v", st.Source, err)
			}
			check("Recv(AnySource, AnyTag)", st, st.Source, 10*st.Source+i, n)
			other := 3 - st.Source
			st, _ = c.Recv(r, nil, n, Byte, other, AnyTag)
			check("Recv(AnyTag)", st, other, 10*other+i, n)
		}
		for src := 1; src <= 2; src++ {
			st, _ := c.Sendrecv(r, nil, 0, Byte, src, 80, nil, 8, Int, src, AnyTag)
			check("Sendrecv(AnyTag)", st, src, 70+src, 32)
			if st.GetCount(Int) != 8 {
				t.Errorf("GetCount(Int) = %d, want 8", st.GetCount(Int))
			}
		}
	})
}

// A rank parked at a rendezvous hands sim the routine's name for a deadlock
// report that is almost never printed; that must not cost an allocation per
// wait.
func TestBlockedSyncWaitAllocatesNothing(t *testing.T) {
	const rounds = 200
	w := newTestWorld(t, LAM, 1, 2)
	rv := &rendezvous{n: 2}
	var perWait float64
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		if r.Rank() == 1 {
			for i := 0; i < rounds+2; i++ {
				r.Compute(sim.Microsecond) // arrive last: rank 0 blocks every round
				rv.meet(r, "MPI_Barrier", nil)
			}
			return
		}
		rv.meet(r, "MPI_Barrier", nil)
		perWait = testing.AllocsPerRun(rounds, func() { rv.meet(r, "MPI_Barrier", nil) })
	})
	if perWait != 0 {
		t.Errorf("blocked rendezvous wait: %v allocs, want 0", perWait)
	}
}

// The RMA synchronization waits describe themselves through a Stringer the
// rank's window handle already is, so a blocking iteration formats nothing;
// the deadlock report must still read exactly as it did when every iteration
// built the string.
func TestDeadlockReportNamesTheRMAWait(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog func(r *Rank, win *Win)
		want string
	}{
		{"post", func(r *Rank, win *Win) {
			if r.Rank() == 0 { // rank 1 never posts
				win.Start([]int{1}, 0)
				win.Complete()
			}
		}, "MPI_Win_post from rank 1 on window 0-1"},
		{"complete", func(r *Rank, win *Win) {
			if r.Rank() == 1 { // rank 0 never starts an access epoch
				win.Post([]int{0}, 0)
				win.WaitEpoch()
			}
		}, "MPI_Win_complete notices on window 0-1 (0/1)"},
		{"lock", func(r *Rank, win *Win) {
			if r.Rank() == 1 {
				r.Compute(sim.Millisecond)
			}
			win.Lock(LockExclusive, 0, 0) // rank 0 takes it and never unlocks
		}, "MPI_Win_lock on rank 0 of 0-1"},
	} {
		w := newTestWorld(t, Reference, 2, 1)
		w.Register("main", func(r *Rank, _ []string) {
			win, err := r.World().WinCreate(r, 8, 1, nil)
			if err != nil {
				t.Error(err)
				return
			}
			tc.prog(r, win)
		})
		if _, err := w.LaunchN("main", 2, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Eng.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run error = %v, want a deadlock naming %q", tc.name, err, tc.want)
		}
	}
}

// A slab of 64 messages and its allocation header fit the 8 KiB size class;
// one word more per message (the 136 bytes of separate credit counters)
// rounded each slab up to 9 472 bytes.
func TestMessageSlabFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(message{}); 64*n+8 > 8192 {
		t.Errorf("a message is %d bytes: a slab of 64 is %d, over 8 KiB", n, 64*n+8)
	}
}
