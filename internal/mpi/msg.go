package mpi

import (
	"fmt"

	"pperf/internal/sim"
)

// message is an in-flight or queued point-to-point message. For eager sends
// it carries the payload; for rendezvous sends it is the "ready to send"
// notice that the receiver matches before the transfer happens.
type message struct {
	src, dst *Rank
	envelope
	bytes      int
	data       []byte
	sentAt     sim.Time // injection time, for trace message edges
	arrival    sim.Time
	rendezvous bool
	matched    bool     // a receive has taken it: it is out of every mailbox
	creditBack bool     // credit is released and travelling back
	sreq       *Request // rendezvous: the sender's request, completed by the transfer
	// credit, when nonzero, is the flow-window charge owed back to the sender
	// (on consume or library drain); released at creditAt, it travels back in
	// this message as its own event. Three bools in one word keep a message at
	// 120 bytes: 64 of them and the allocation header fit the 8 KiB size class.
	credit   int
	creditAt sim.Time
}

// envelope is what matching compares. A message carries the one it was sent
// with; a receive's or probe's is its pattern, which may hold the wildcards.
type envelope struct{ commID, srcRank, tag int }

// pattern validates a receive or probe pattern for (src, tag) on c: a source
// other than AnySource must be a rank of the group r receives from.
func (c *Comm) pattern(r *Rank, src, tag int) (envelope, error) {
	var err error
	if src != AnySource {
		_, err = c.peer(r, src)
	}
	return envelope{c.id, src, tag}, err
}

// matches reports whether message m meets pattern p.
func (p envelope) matches(m *message) bool {
	return p.commID == m.commID &&
		(p.srcRank == AnySource || p.srcRank == m.srcRank) &&
		(p.tag == AnyTag || p.tag == m.tag)
}

// inject puts msg on the wire in a recycled message, to arrive at its
// destination never before the sender's previous message there (MPI's
// non-overtaking rule). An empty free list (one thing runs at a time, so it
// needs no lock) is refilled with a slab of 4, then twice the last, up to 64.
func (w *World) inject(msg message) {
	l := msg.src.linkTo(msg.dst.global)
	msg.arrival = max(msg.arrival, l.lastArrival)
	l.lastArrival = msg.arrival
	if len(w.freeMsgs) == 0 {
		slab := make([]message, min(w.msgsMade+4, 64))
		for i := range slab {
			w.freeMsgs = append(w.freeMsgs, &slab[i])
		}
		w.msgsMade += len(slab)
	}
	m := w.freeMsgs[len(w.freeMsgs)-1]
	w.freeMsgs = w.freeMsgs[:len(w.freeMsgs)-1]
	*m = msg
	w.Eng.Schedule(m.arrival, m)
}

// recycle returns the message to the world's free list once nothing can
// reach it again: a receive has matched it (the request copied out what it
// keeps) and no credit event is still carrying it.
func (m *message) recycle() {
	if m.matched && !m.creditBack {
		w := m.dst.w
		*m = message{}
		w.freeMsgs = append(w.freeMsgs, m)
	}
}

// Fire is the message's scheduled event (sim.Target): first its arrival at
// the destination, then — for an eager message whose flow-window bytes the
// receiver has released — those bytes' arrival back at the sender.
func (m *message) Fire() {
	if !m.creditBack {
		m.deliver()
		return
	}
	bytes := m.credit
	m.credit, m.creditBack = 0, false
	m.src.addCredit(m.dst.global, bytes, m.creditAt)
	m.recycle()
}

// Request is a nonblocking operation handle (from Isend/Irecv), completed
// with Wait; a blocking call's own is recycled (newRequest, waitRecycle).
type Request struct {
	owner      *Rank
	isSend     bool
	rendezvous bool // a send that posts a ready-to-send notice
	done       bool
	completeAt sim.Time

	// A receive's match pattern, or the envelope a send's message carries.
	// A matched receive owns what it keeps of the message — its status,
	// payload included — so the message can be recycled while the request
	// lives on.
	envelope
	status Status
	buf    []byte // destination buffer; filled on completion if non-nil

	// Send side.
	dst   *Rank
	bytes int
	data  []byte // payload to send
}

// newRequest returns a request initialised to init, reusing one from the
// world's free list if there is one.
func (w *World) newRequest(init Request) *Request {
	var rq *Request
	if n := len(w.freeReqs); n > 0 {
		rq, w.freeReqs = w.freeReqs[n-1], w.freeReqs[:n-1]
	} else {
		rq = new(Request)
	}
	*rq = init
	return rq
}

// complete finishes the request at time t and wakes the owner if it is
// blocked. For a receive, match has already copied the status out of the
// message; the payload lands in the caller's buffer now.
func (rq *Request) complete(t sim.Time) {
	rq.done = true
	rq.completeAt = t
	if rq.buf != nil && rq.status.data != nil {
		copy(rq.buf, rq.status.data)
	}
	rq.owner.wakeAt(t)
}

// transferEnd is a *Request as a scheduled event (sim.Target): the end of a
// rendezvous transfer, at the completeAt match set — the payload drained
// for the send side, landed for the receive side. A type of its own keeps
// Fire off the exported Request.
type transferEnd Request

func (rq *transferEnd) Fire() { (*Request)(rq).complete(rq.completeAt) }

// waitingOn is a *Request as the description of a blocking wait on it; sim
// asks for the text only when it prints a deadlock report.
type waitingOn Request

func (rq *waitingOn) String() string {
	if rq.isSend {
		return fmt.Sprintf("MPI_Send(tag=%d, comm=%d) on rank %d", rq.tag, rq.commID, rq.owner.rank)
	}
	return fmt.Sprintf("MPI_Recv(tag=%d, comm=%d) on rank %d", rq.tag, rq.commID, rq.owner.rank)
}

// deliver runs in scheduler (event) context when a message or
// ready-to-send notice arrives at its destination: match a posted receive
// or queue as unexpected.
func (m *message) deliver() {
	dst := m.dst
	if rq, i := dst.posted.first(func(rq *Request) bool { return rq.matches(m) }); i >= 0 {
		dst.posted.remove(i)
		// The receive was already posted, so the receiver was (or will be)
		// blocked on this message: a wait edge.
		m.match(rq, m.arrival, true)
		return
	}
	dst.unexpected.push(m)
	if dst.inLibraryWait > 0 {
		// The receiver is blocked inside the MPI library, so its transport
		// is being drained: the flow window frees without a match. Wake it
		// too, in case it is in MPI_Probe (or any library wait that
		// re-checks the unexpected queue); spurious wakes are harmless.
		m.returnCredit(m.arrival)
		dst.wakeAt(m.arrival)
	}
}

// returnCredit schedules the message's flow-window bytes back to the sender.
func (m *message) returnCredit(t sim.Time) {
	if m.credit == 0 || m.creditBack {
		return
	}
	m.creditBack, m.creditAt = true, t
	lat := m.dst.w.MsgTime(t, m.dst.node, m.src.node, 0)
	m.dst.w.Eng.Schedule(t.Add(lat), m)
}

// match completes the handshake between message m and receive request rq,
// where tm is the match time (>= both the arrival and the post time).
// waited says the receive was posted before the message arrived (the
// receiver blocked on it), which makes the trace edge a critical-path edge.
func (m *message) match(rq *Request, tm sim.Time, waited bool) {
	w := m.dst.w
	lat := w.MsgTime(tm, m.src.node, m.dst.node, 0) // pure latency
	m.matched = true
	rq.status = Status{Source: m.srcRank, Tag: m.tag, bytes: m.bytes}
	if !m.rendezvous {
		if tr := w.Tracer; tr != nil {
			w.traceEdge("msg", m.src, m.dst, m.sentAt, tm, m.tag, m.bytes, tr.NewFlow(), waited)
		}
		rq.status.data = m.data
		rq.complete(tm)
		m.returnCredit(tm)
		m.recycle()
		return
	}
	// Rendezvous: clear-to-send travels back, then the payload crosses.
	transfer := w.MsgTime(tm, m.src.node, m.dst.node, m.bytes) - lat
	ctsAt := tm.Add(lat)
	sendDone := ctsAt.Add(transfer)
	recvDone := sendDone.Add(lat)
	sreq := m.sreq
	if tr := w.Tracer; tr != nil {
		// The sender blocks until the clear-to-send arrives and the payload
		// drains; the receiver blocks until the payload lands.
		w.traceEdge("rendezvous", m.dst, m.src, tm, sendDone, m.tag, 0, 0, true)
		w.traceEdge("msg", m.src, m.dst, sendDone, recvDone, m.tag, m.bytes, tr.NewFlow(), true)
	}
	sreq.completeAt, rq.completeAt, rq.status.data = sendDone, recvDone, sreq.data
	w.Eng.Schedule(sendDone, (*transferEnd)(sreq))
	w.Eng.Schedule(recvDone, (*transferEnd)(rq))
	m.recycle()
}

// link is a rank's send state toward one destination: the flow-window bytes
// it may still send eagerly, and when its latest message or ready-to-send
// notice arrives there (see inject).
type link struct {
	credits     int
	lastArrival sim.Time
}

// linkTo returns r's link to destination global id gid, with a full flow
// window on first use.
func (r *Rank) linkTo(gid int) *link {
	l := r.links[gid]
	if l == nil {
		l = &link{credits: r.w.Impl.Cost.FlowCreditBytes}
		r.links[gid] = l
	}
	return l
}

// addCredit returns flow-window bytes for sends to destination global id
// dstGID and starts the pending sends to that destination, in order, while
// they fit. Runs in event context at the credit's arrival time. sentAt is
// when the receiver released the window (for the trace's credit edge).
func (r *Rank) addCredit(dstGID int, bytes int, sentAt sim.Time) {
	r.linkTo(dstGID).credits += bytes
	now := r.w.Eng.Now()
	for {
		rq, i := r.pendingSends.first(func(rq *Request) bool { return rq.dst.global == dstGID })
		if i < 0 {
			return
		}
		charge, started := r.start(rq, now)
		if !started {
			return // head-of-line blocks until enough window frees
		}
		r.pendingSends.remove(i)
		if tr := r.w.Tracer; tr != nil {
			// The blocked send was released by the peer freeing flow-window
			// space: the credit is what the sender was really waiting on.
			r.w.traceEdge("credit", r.w.ranks[dstGID], r, sentAt, now, 0, charge, 0, true)
		}
	}
}

// start puts send rq on the wire at t and reports whether it could, with the
// flow-window bytes it charged. A rendezvous send posts its ready-to-send
// notice (the transfer starts when the receiver matches it); an eager one
// goes out, and completes, if the window to its destination has room.
func (r *Rank) start(rq *Request, t sim.Time) (charge int, started bool) {
	cost := &r.w.Impl.Cost
	msg := message{src: r, dst: rq.dst, envelope: rq.envelope, bytes: rq.bytes, sentAt: t}
	if rq.rendezvous {
		msg.rendezvous, msg.sreq = true, rq
		msg.arrival = t.Add(r.w.MsgTime(t, r.node, rq.dst.node, 0))
		r.w.inject(msg)
		return 0, true
	}
	l := r.linkTo(rq.dst.global)
	charge = rq.bytes + cost.MsgHeaderBytes
	switch {
	case charge > cost.FlowCreditBytes:
		// An eager message larger than the whole flow window (possible when
		// the eager threshold exceeds the buffer size) bypasses windowing:
		// real transports grow their buffers rather than deadlock.
		charge = 0
	case l.credits < charge:
		return 0, false
	}
	l.credits -= charge
	msg.data, msg.credit = rq.data, charge
	msg.arrival = t.Add(r.w.MsgTime(t, r.node, rq.dst.node, rq.bytes))
	r.w.inject(msg)
	rq.complete(t)
	return charge, true
}
