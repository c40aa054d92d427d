package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/sim"
)

// FuzzMatchOrder holds the mailbox to MPI's matching rule, checked against a
// model kept here: a plain scan in arrival order over a snapshot of the
// receiver's unexpected queue, and a list of posted patterns in post order.
// Three senders send eager and rendezvous messages over two communicators
// and three tags, every message of its own size so a status names it.
//
// Posted first: the receiver posts receives before anything arrives, the
// senders' Isends are spaced so they arrive in a known order, and each
// arrival must land in the earliest-posted receive it matches (fillers
// complete the receives nothing matched). Unexpected first: the rest queues,
// and before each Recv, Irecv+Wait, Probe (then a Recv of the same
// pattern, which must see the same message) or Iprobe, specific or
// wildcard, the scan predicts the message the call must see.
func FuzzMatchOrder(f *testing.F) {
	for seed := int64(1); seed <= 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := runMatchOrder(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

const (
	moSenders = 3
	moTags    = 3
	moGap     = sim.Millisecond // between posted-first arrivals
)

// moMsg is one message of the plan: sender rank, communicator (0: world,
// 1: its duplicate), tag and size, which names the message.
type moMsg struct{ from, comm, tag, bytes int }

// moPattern is a receive pattern over the same communicator indices.
type moPattern struct{ comm, src, tag int }

func (p moPattern) accepts(m moMsg) bool {
	return p.comm == m.comm && (p.src == AnySource || p.src == m.from) && (p.tag == AnyTag || p.tag == m.tag)
}

// moPlan is what both sides of a run follow: the posted-first receives,
// the spaced arrivals (slot i at moGap*(10+i)) and the receive each of
// them must land in (-1: none, it queues), then the unexpected-first sends.
type moPlan struct {
	posted  []moPattern
	spaced  []moMsg
	landsIn []int
	queued  []moMsg
}

func newMoPlan(rng *rand.Rand) *moPlan {
	p := &moPlan{}
	size := 0
	msg := func(from, comm, tag int) moMsg {
		size++
		if rng.Intn(4) == 0 {
			return moMsg{from, comm, tag, 64*1024 + size} // above the eager threshold
		}
		return moMsg{from, comm, tag, size}
	}
	wild := func(v, any int) int {
		if rng.Intn(3) == 0 {
			return any
		}
		return v
	}
	for n := 1 + rng.Intn(6); len(p.posted) < n; {
		p.posted = append(p.posted, moPattern{rng.Intn(2), wild(1+rng.Intn(moSenders), AnySource), wild(rng.Intn(moTags), AnyTag)})
	}
	open := make([]int, len(p.posted)) // unmatched posted receives, in post order
	for i := range open {
		open[i] = i
	}
	arrive := func(m moMsg) {
		p.spaced = append(p.spaced, m)
		for k, i := range open {
			if p.posted[i].accepts(m) {
				p.landsIn = append(p.landsIn, i)
				open = append(open[:k], open[k+1:]...)
				return
			}
		}
		p.landsIn = append(p.landsIn, -1)
	}
	for n := rng.Intn(8); n > 0; n-- {
		arrive(msg(1+rng.Intn(moSenders), rng.Intn(2), rng.Intn(moTags)))
	}
	// A filler matches the earliest receive still open, so it lands there.
	for len(open) > 0 {
		pat := p.posted[open[0]]
		from, tag := pat.src, pat.tag
		if from == AnySource {
			from = 1 + rng.Intn(moSenders)
		}
		if tag == AnyTag {
			tag = rng.Intn(moTags)
		}
		arrive(msg(from, pat.comm, tag))
	}
	for n := rng.Intn(24); n > 0; n-- {
		p.queued = append(p.queued, msg(1+rng.Intn(moSenders), rng.Intn(2), rng.Intn(moTags)))
	}
	return p
}

// runMatchOrder runs one plan under a personality the seed picks.
func runMatchOrder(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	plan := newMoPlan(rng)
	kind := []ImplKind{LAM, MPICH, MPICH2}[rng.Intn(3)]
	eng := sim.NewEngine(uint64(seed))
	w := NewWorld(eng, cluster.DefaultSpec(2, 2), NewImpl(kind))
	var fail error
	failf := func(format string, args ...any) {
		if fail == nil {
			fail = fmt.Errorf(format, args...)
		}
	}
	queuedFrom := sim.Time(0).Add(moGap * sim.Duration(20+len(plan.spaced)))
	w.Register("main", func(r *Rank, _ []string) {
		dup, err := r.World().Dup(r)
		if err != nil {
			failf("Dup: %v", err)
			return
		}
		comms := [2]*Comm{r.World(), dup}
		if r.Rank() == 0 {
			receive(r, comms, plan, queuedFrom, rand.New(rand.NewSource(seed)), failf)
			return
		}
		var reqs []*Request
		for i, m := range plan.spaced {
			if m.from == r.Rank() {
				r.IdleWait(sim.Time(0).Add(moGap * sim.Duration(10+i)).Sub(r.Now()))
				rq, err := comms[m.comm].Isend(r, nil, m.bytes, Byte, 0, m.tag)
				if err != nil {
					failf("Isend: %v", err)
					return
				}
				reqs = append(reqs, rq)
			}
		}
		r.IdleWait(queuedFrom.Sub(r.Now()))
		for _, m := range plan.queued {
			if m.from == r.Rank() {
				if err := comms[m.comm].Send(r, nil, m.bytes, Byte, 0, m.tag); err != nil {
					failf("Send: %v", err)
					return
				}
				r.Compute(sim.Duration(m.bytes%7) * 30 * sim.Microsecond)
			}
		}
		r.Waitall(reqs)
	})
	if _, err := w.LaunchN("main", 1+moSenders, nil); err != nil {
		return err
	}
	// A failed check may leave the senders blocked: report it, not the
	// deadlock that follows.
	if err := eng.Run(); fail == nil {
		return err
	}
	return fail
}

// receive is rank 0's side of a plan: the posted-first receives, then
// random receives and probes against the model until every message is in.
func receive(r *Rank, comms [2]*Comm, plan *moPlan, queuedFrom sim.Time, rng *rand.Rand, failf func(string, ...any)) {
	got := map[int]bool{} // sizes received
	took := func(what string, st Status, want moMsg) {
		if st.Source != want.from || st.Tag != want.tag || st.bytes != want.bytes {
			failf("%s: got (src %d, tag %d, %d bytes), want %+v", what, st.Source, st.Tag, st.bytes, want)
		}
		if got[st.bytes] {
			failf("%s: message of %d bytes received twice", what, st.bytes)
		}
		got[st.bytes] = true
	}

	reqs := make([]*Request, len(plan.posted))
	for i, p := range plan.posted {
		var err error
		if reqs[i], err = comms[p.comm].Irecv(r, nil, 1, Byte, p.src, p.tag); err != nil {
			failf("Irecv: %v", err)
			return
		}
	}
	if r.Now() >= sim.Time(0).Add(10*moGap) {
		failf("posting took until %v, past the first arrival", r.Now())
		return
	}
	for k, m := range plan.spaced {
		if i := plan.landsIn[k]; i >= 0 {
			r.Wait(reqs[i])
			took(fmt.Sprintf("posted receive %d (%+v)", i, plan.posted[i]), reqs[i].status, m)
		}
	}

	r.IdleWait(queuedFrom.Add(2 * sim.Millisecond).Sub(r.Now()))
	total := len(plan.spaced) + len(plan.queued)
	for spins := 0; len(got) < total; spins++ {
		if spins > 100000 {
			failf("%d of %d messages received", len(got), total)
			return
		}
		var snap []moMsg
		r.unexpected.each(func(m *message) {
			c := 0
			if m.commID == comms[1].id {
				c = 1
			}
			snap = append(snap, moMsg{m.srcRank, c, m.tag, m.bytes})
		})
		if len(snap) == 0 {
			r.IdleWait(100 * sim.Microsecond)
			continue
		}
		e := snap[rng.Intn(len(snap))]
		p := moPattern{e.comm, e.from, e.tag}
		if rng.Intn(3) == 0 {
			p.src = AnySource
		}
		if rng.Intn(3) == 0 {
			p.tag = AnyTag
		}
		op := rng.Intn(4)
		if op == 3 && rng.Intn(4) == 0 {
			// An Iprobe may look for what is not there.
			p = moPattern{rng.Intn(2), 1 + rng.Intn(moSenders), rng.Intn(moTags)}
		}
		var want moMsg
		found := false
		for _, m := range snap {
			if p.accepts(m) {
				want, found = m, true
				break
			}
		}
		c := comms[p.comm]
		what := fmt.Sprintf("op %d on %+v over %v", op, p, snap)
		switch op {
		case 0:
			st, err := c.Recv(r, nil, want.bytes, Byte, p.src, p.tag)
			if err != nil {
				failf("%s: %v", what, err)
				return
			}
			took(what, st, want)
		case 1:
			rq, err := c.Irecv(r, nil, want.bytes, Byte, p.src, p.tag)
			if err != nil {
				failf("%s: %v", what, err)
				return
			}
			r.Wait(rq)
			took(what, rq.status, want)
		case 2:
			st, err := c.ProbeMsg(r, p.src, p.tag)
			if err != nil {
				failf("%s: %v", what, err)
				return
			}
			if st.Source != want.from || st.Tag != want.tag || st.bytes != want.bytes {
				failf("%s: Probe saw (src %d, tag %d, %d bytes), want %+v", what, st.Source, st.Tag, st.bytes, want)
			}
			rst, err := c.Recv(r, nil, want.bytes, Byte, p.src, p.tag)
			if err != nil {
				failf("%s: %v", what, err)
				return
			}
			took(what+", Recv after Probe", rst, want)
		case 3:
			ok, st, err := c.Iprobe(r, p.src, p.tag)
			switch {
			case err != nil:
				failf("%s: %v", what, err)
			case found && (!ok || st.Source != want.from || st.Tag != want.tag || st.bytes != want.bytes):
				failf("%s: Iprobe saw %v %+v, want %+v", what, ok, st, want)
			case !found && ok && queuedHas(snap, st.bytes):
				// Only a message that arrived during the call may turn up.
				failf("%s: Iprobe saw queued %+v, which the pattern does not match", what, st)
			}
		}
	}
	if n := r.unexpected.len(); n != 0 {
		failf("%d messages left unexpected after all %d were received", n, total)
	}
}

func queuedHas(snap []moMsg, bytes int) bool {
	for _, m := range snap {
		if m.bytes == bytes {
			return true
		}
	}
	return false
}
