package core

import (
	"fmt"
	"strings"
	"testing"

	"pperf/internal/mpi"
)

// A program cycling through more tag values than maxTagsPerComm gets
// exactly the first maxTagsPerComm of them as resources, in first-use
// order, and the cap is per communicator: a second one gets its own.
func TestTagDiscoveryCapsTagsPerCommunicator(t *testing.T) {
	const tags = 40
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
	var dupID int
	s.Register("tags", func(r *mpi.Rank, _ []string) {
		world := r.World()
		dup, err := world.Dup(r)
		if err != nil {
			t.Error(err)
			return
		}
		dupID = dup.ID()
		for _, c := range []*mpi.Comm{world, dup} {
			for round := 0; round < 2; round++ { // the second round re-uses every tag
				for tag := 0; tag < tags; tag++ {
					if r.Rank() == 0 {
						c.Send(r, nil, 1, mpi.Byte, 1, tag)
					} else {
						c.Recv(r, nil, 1, mpi.Byte, 0, tag)
					}
				}
			}
		}
	})
	if err := s.Launch("tags", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, dupID} {
		comm := s.FE.Hierarchy().FindPath(fmt.Sprintf("/SyncObject/Message/comm-%d", id))
		if comm == nil {
			t.Fatalf("comm-%d not discovered\n%s", id, s.FE.Hierarchy().Render())
		}
		var got []string
		for _, ch := range comm.Children() {
			if strings.HasPrefix(ch.Name(), "tag-") {
				got = append(got, ch.Name())
			}
		}
		if len(got) != maxTagsPerComm {
			t.Errorf("comm-%d has %d tag resources, want exactly %d: %v", id, len(got), maxTagsPerComm, got)
			continue
		}
		for i, name := range got {
			if want := fmt.Sprintf("tag-%d", i); name != want {
				t.Errorf("comm-%d child %d = %s, want %s (first-use order)", id, i, name, want)
			}
		}
	}
}
