package mpi

import (
	"fmt"
	"testing"

	"pperf/internal/probe"
)

// traceMeta reads each call's arguments where its call site puts them: every
// case of its switch, and two calls outside it, are run on two LAM ranks and
// rank 0's (or rank 1's) first call of each is read back through traceMeta.
// MPI_Reduce's and MPI_Allreduce's count and datatype follow their two
// buffers.
func TestTraceMetaReadsEveryCall(t *testing.T) {
	w := newTestWorld(t, LAM, 2, 1)
	got := map[string]string{}
	note := func(rank int, name string) probe.Handler {
		return func(ev *probe.Event) {
			key := fmt.Sprint(rank, " ", name)
			if _, ok := got[key]; !ok {
				peer, tag, bytes, obj := traceMeta(name, ev.Args)
				got[key] = fmt.Sprintf("peer=%q tag=%d bytes=%d obj=%q", peer, tag, bytes, obj)
			}
		}
	}
	names := []string{"MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Sendrecv", "MPI_Put", "MPI_Get",
		"MPI_Accumulate", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce", "MPI_Win_fence"}
	var world string
	var win string
	runProgram(t, w, 2, func(r *Rank, _ []string) {
		for _, name := range names {
			r.Probes().Insert(w.Impl.fn(name).Name, probe.Entry, probe.Append, note(r.Rank(), name))
		}
		c, me := r.World(), r.Rank()
		world = c.Name()
		check := func(err error) {
			if err != nil {
				t.Error(err)
			}
		}
		if me == 0 {
			check(c.Send(r, nil, 3, Double, 1, 300))
			rq, err := c.Isend(r, nil, 2, Int, 1, 5)
			check(err)
			r.Wait(rq)
		} else {
			_, err := c.Recv(r, nil, 3, Double, AnySource, 300)
			check(err)
			rq, err := c.Irecv(r, nil, 2, Int, 0, 5)
			check(err)
			r.Wait(rq)
		}
		_, err := c.Sendrecv(r, nil, 1, Double, 1-me, 7, nil, 1, Double, 1-me, 7)
		check(err)
		wn, err := c.WinCreate(r, 64, 1, nil)
		check(err)
		win = wn.UniqueID()
		check(wn.Fence(0))
		if me == 0 {
			check(wn.Put(nil, 4, Int, 1, 8, 4, Int))
			check(wn.Get(nil, 2, Byte, 1, 0, 2, Byte))
			check(wn.Accumulate(nil, 2, Double, 1, 16, 2, Double, OpSum))
		}
		check(wn.Fence(0))
		_, err = c.Bcast(r, nil, 24, Byte, 0)
		check(err)
		_, err = c.Reduce(r, []float64{1, 2, 3}, Double, OpSum, 0)
		check(err)
		_, err = c.Allreduce(r, []float64{1, 2, 3}, Double, OpSum)
		check(err)
	})
	want := map[string]string{
		"0 MPI_Send":       `peer="1" tag=300 bytes=24 obj="` + world + `"`,
		"1 MPI_Recv":       `peer="any" tag=300 bytes=24 obj="` + world + `"`,
		"0 MPI_Isend":      `peer="1" tag=5 bytes=8 obj="` + world + `"`,
		"1 MPI_Irecv":      `peer="0" tag=5 bytes=8 obj="` + world + `"`,
		"0 MPI_Sendrecv":   `peer="1" tag=7 bytes=8 obj="` + world + `"`,
		"0 MPI_Put":        `peer="1" tag=0 bytes=16 obj="win ` + win + `"`,
		"0 MPI_Get":        `peer="1" tag=0 bytes=2 obj="win ` + win + `"`,
		"0 MPI_Accumulate": `peer="1" tag=0 bytes=16 obj="win ` + win + `"`,
		"0 MPI_Bcast":      `peer="" tag=0 bytes=24 obj="` + world + `"`,
		"0 MPI_Reduce":     `peer="" tag=0 bytes=24 obj="` + world + `"`,
		"0 MPI_Allreduce":  `peer="" tag=0 bytes=24 obj="` + world + `"`,
		"0 MPI_Win_fence":  `peer="" tag=0 bytes=0 obj="win ` + win + `"`,
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: %s, want %s", key, got[key], w)
		}
	}
}
