package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pperf/internal/cluster"
	"pperf/internal/sim"
)

// qc returns a reproducible quick.Check config: property failures replay
// identically instead of depending on the test run's random seed.
func qc(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(20040401))}
}

// Property: for any random pattern of sends from rank 0 (mixed sizes, so
// both eager and rendezvous paths run), every message arrives exactly once,
// in per-pair FIFO order, with its payload intact.
func TestPropertyMessageConservation(t *testing.T) {
	f := func(sizes []uint16, seed uint64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		eng := sim.NewEngine(seed)
		w := NewWorld(eng, cluster.DefaultSpec(2, 1), NewImpl(LAM))
		// Mix eager and rendezvous: scale sizes across the threshold.
		byteSizes := make([]int, len(sizes))
		for i, s := range sizes {
			byteSizes[i] = int(s)*3 + 1 // up to ~196K, threshold is 64K
		}
		okCh := true
		w.Register("main", func(r *Rank, _ []string) {
			c := r.World()
			if r.Rank() == 0 {
				for i, n := range byteSizes {
					data := []byte{byte(i), byte(i >> 8)}
					c.Send(r, data, n, Byte, 1, i%5)
				}
				return
			}
			for i, n := range byteSizes {
				st, err := c.Recv(r, nil, n, Byte, 0, i%5)
				if err != nil {
					okCh = false
					return
				}
				d := st.Data()
				if len(d) < 2 || d[0] != byte(i) || d[1] != byte(i>>8) {
					okCh = false
					return
				}
			}
			if r.unexpected.len() != 0 {
				okCh = false
			}
		})
		if _, err := w.LaunchN("main", 2, nil); err != nil {
			return false
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return okCh
	}
	if err := quick.Check(f, qc(25)); err != nil {
		t.Error(err)
	}
}

// Property: receives by wildcard preserve per-(sender,tag) FIFO order even
// with several interleaved senders.
func TestPropertyFIFOPerPair(t *testing.T) {
	f := func(counts [3]uint8, sizes [3][4]uint16, modes [3][5]uint8, seed uint64) bool {
		total := 0
		for _, c := range counts {
			total += int(c % 20)
		}
		if total == 0 {
			return true
		}
		eng := sim.NewEngine(seed)
		w := NewWorld(eng, cluster.DefaultSpec(4, 1), NewImpl(MPICH2))
		cost := w.Impl.Cost
		eager := cost.EagerThreshold
		ok := true
		w.Register("main", func(r *Rank, _ []string) {
			c := r.World()
			if r.Rank() == 0 {
				lastSeq := map[int]int{}
				for i := 0; i < total; i++ {
					st, err := c.Recv(r, nil, 2*eager, Byte, AnySource, AnyTag)
					if err != nil {
						ok = false
						return
					}
					src := st.Source
					seq := int(st.Data()[0]) | int(st.Data()[1])<<8
					if seq != lastSeq[src] {
						ok = false // out of order from this sender
						return
					}
					lastSeq[src] = seq + 1
				}
				return
			}
			n := int(counts[r.Rank()-1] % 20)
			var isends []*Request
			for i := 0; i < n; i++ {
				// A few bytes up to just under the eager threshold, so a
				// small message often follows a large one, sent by Send,
				// Isend or Ssend; or past the threshold, or eager but past
				// the flow window once the header counts. None of them may
				// overtake an Isend still waiting for window space.
				s := int(sizes[r.Rank()-1][i%4])
				size := 4 + s%(eager-4)
				mode := modes[r.Rank()-1][i%5] % 5
				switch mode {
				case 3:
					size = eager + 1 + s
				case 4:
					size = cost.FlowCreditBytes - cost.MsgHeaderBytes + 1 + s%cost.MsgHeaderBytes
				}
				buf := make([]byte, size)
				buf[0], buf[1] = byte(i), byte(i>>8)
				switch mode {
				case 1:
					rq, _ := c.Isend(r, buf, size, Byte, 0, 0)
					isends = append(isends, rq)
				case 2:
					c.Ssend(r, buf, size, Byte, 0, 0)
				default:
					c.Send(r, buf, size, Byte, 0, 0)
				}
			}
			r.Waitall(isends)
		})
		if _, err := w.LaunchN("main", 4, nil); err != nil {
			return false
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, qc(25)); err != nil {
		t.Error(err)
	}
}

// Property: collectives agree across implementations: for any vector and
// group size, Allreduce(sum) equals the serial sum under every personality.
func TestPropertyAllreduceAgreesAcrossImpls(t *testing.T) {
	f := func(vals [6]int8, np uint8) bool {
		n := int(np%5) + 2
		want := 0.0
		for i := 0; i < n; i++ {
			want += float64(vals[i%6])
		}
		for _, kind := range []ImplKind{LAM, MPICH, MPICH2} {
			eng := sim.NewEngine(3)
			w := NewWorld(eng, cluster.DefaultSpec(4, 2), NewImpl(kind))
			ok := true
			w.Register("main", func(r *Rank, _ []string) {
				got, err := r.World().Allreduce(r, []float64{float64(vals[r.Rank()%6])}, Double, OpSum)
				if err != nil || got[0] != want {
					ok = false
				}
			})
			if _, err := w.LaunchN("main", n, nil); err != nil {
				return false
			}
			if err := eng.Run(); err != nil {
				return false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qc(20)); err != nil {
		t.Error(err)
	}
}

// Property: RMA put+get round trips preserve data for any offsets within
// bounds.
func TestPropertyRMARoundTrip(t *testing.T) {
	f := func(vals []byte, off uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		disp := int(off % 32)
		eng := sim.NewEngine(9)
		w := NewWorld(eng, cluster.DefaultSpec(2, 1), NewImpl(Reference))
		got := make([]byte, len(vals))
		w.Register("main", func(r *Rank, _ []string) {
			win, err := r.World().WinCreate(r, 128, 1, nil)
			if err != nil {
				panic(err)
			}
			win.Fence(0)
			if r.Rank() == 0 {
				win.Put(vals, len(vals), Byte, 1, disp, len(vals), Byte)
			}
			win.Fence(0)
			if r.Rank() == 0 {
				win.Get(got, len(vals), Byte, 1, disp, len(vals), Byte)
			}
			win.Fence(0)
			win.Free()
		})
		if _, err := w.LaunchN("main", 2, nil); err != nil {
			return false
		}
		if err := eng.Run(); err != nil {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qc(25)); err != nil {
		t.Error(err)
	}
}
