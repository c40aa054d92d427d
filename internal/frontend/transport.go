package frontend

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/session"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// The TCP transport carries daemon reports to the front end over real
// sockets — the shape of a deployment where daemons run on cluster nodes and
// the front end on the user's workstation. Each report is acknowledged
// before the daemon proceeds, so delivery order (and therefore front-end
// state) stays deterministic even though the listener runs on its own
// goroutine. The frame is gob, but every report rides inside it in the packed
// form the archive stores it in (an update as a one-event section), so gob
// moves only the envelope, never a session.Event, a []Sample or a []Span —
// and a shard's bytes are the ones its daemon packed when it drained the ring.
//
// Each daemon holds two independent channels to the front end, and
// daemon.ChannelOf says which one a report rides:
//
//   - ctl carries sample batches and resource updates — the
//     latency-sensitive sampling path;
//   - bulk (dialed lazily on the first trace shard) carries trace shards, so
//     arbitrarily large trace volume never queues behind — or delays — a
//     sample batch.
//
// Both channels are wire.Conns (see internal/wire): every frame carries the
// sending daemon's identity and incarnation, its report kind (which names its
// channel), and a per-channel sequence number, each send has a wall-clock
// deadline, failures trigger bounded seeded-jitter retry with a reconnect,
// and the front end dedupes replayed frames per (daemon, channel) — so an ack
// lost to a half-closed socket cannot double-apply a sample batch or a shard,
// and a reconnect resyncs without disturbing determinism. This file owns only
// what the frames mean; the reliability discipline lives in the wire plane.

// frame is the single message exchanged on the wire: one packed report plus
// the envelope that identifies and orders it.
type frame struct {
	// Daemon and Seq identify and order the frame on the channel Kind rides,
	// for dedupe: Seq is per-daemon-per-channel, from 1, strictly increasing.
	Daemon string
	Seq    uint64
	// Inc is the sending daemon incarnation. A frame from an incarnation
	// older than the newest one seen is a straggler from a dead daemon:
	// the listener acknowledges it (so the sender unblocks) but never
	// applies it. A newer incarnation resets the channel's seq space.
	Inc uint64

	// Kind is the report's kind and Packed its packed form. Kind 0 is
	// EvSamples, which gob leaves off the wire.
	Kind   session.EventKind
	Packed []byte
}

// open unpacks a received frame's report and reports whether the frame is
// one a daemon transport could have sent: a named sender, a sequence number
// from the numbered space, a kind a daemon reports, a packed form that
// unpacks to exactly one report of that kind, and no inner sender stamp
// naming anyone but the envelope's daemon. Anything else must not reach the
// front end — a forged verdict, barrier or gap would land in the analysis
// state (and the archive) as if the front end had produced it, a forged
// stamp would keep a dead daemon alive. A batch is unpacked into *samples
// and a shard opened into *shard, the connection's scratch, which the
// returned event then names.
func (f *frame) open(up *session.Unpacker, samples *[]datasource.Sample, shard *trace.Shard) (ev session.Event, ok bool) {
	if _, ok := daemon.ChannelOf(f.Kind); !ok || f.Daemon == "" || f.Seq == 0 {
		return ev, false
	}
	var err error
	var stamp string
	switch f.Kind {
	case session.EvSamples:
		*samples, err = up.UnpackSamplesInto(*samples, f.Packed)
		ev.Samples = *samples
	case session.EvUpdate:
		// One update, into a stack array; only its Update field is kept.
		one, err := up.UnpackEventsInto(make([]session.Event, 0, 1), f.Packed)
		if err != nil || len(one) != 1 || one[0].Kind != f.Kind {
			return ev, false
		}
		ev.Update, stamp = one[0].Update, one[0].Update.Daemon
	case session.EvShard:
		// Verified and kept as bytes (a copy: Packed is the connection's
		// reused buffer); no span is materialised here.
		*shard, err = trace.OpenShard(&up.Table, f.Packed)
		ev.Shard, stamp = shard, shard.Daemon
	}
	ev.Kind = f.Kind
	return ev, err == nil && (stamp == "" || stamp == f.Daemon)
}

// Listener accepts daemon connections for a front end: a wire.Server whose
// frames are report frames. Control and bulk connections land on the same
// listening socket; a frame's kind names its channel.
type Listener struct {
	*wire.Server
	fe *FrontEnd

	// dedupe fences replays and dead-incarnation stragglers per
	// (daemon, channel); its window table is bounded, so a long-lived
	// listener fed ever-fresh daemon identities reaches a steady state.
	dedupe *wire.Dedupe
	// refused counts connections dropped for sending a frame no daemon
	// transport produces.
	refused atomic.Int64
}

// Listen starts a TCP listener feeding the front end. Use addr "127.0.0.1:0"
// to pick a free port; Addr reports the chosen address.
func (fe *FrontEnd) Listen(addr string) (*Listener, error) {
	l := &Listener{fe: fe, dedupe: wire.NewDedupe(0)}
	srv, err := wire.Listen(addr, l.serve)
	if err != nil {
		return nil, fmt.Errorf("frontend: listen: %w", err)
	}
	l.Server = srv
	return l, nil
}

// WireStats returns the listener-side wire counters for one channel
// (wire.ChanCtl or wire.ChanBulk): frames received plus the dedupe layer's
// duplicate/stale accounting. Connections are not per channel, so the
// server's dropped-connection and accept counters, and the connections
// refused for a malformed frame (see frame.open), are reported with ctl.
func (l *Listener) WireStats(ch string) wire.Stats {
	s := l.dedupe.ChannelStats(ch)
	if ch != wire.ChanBulk {
		srv := l.Stats()
		s.ReadTimeouts, s.AcceptRetries, s.Refused = srv.ReadTimeouts, srv.AcceptRetries, l.refused.Load()
	}
	return s
}

// serve applies one daemon connection's frames to the front end.
func (l *Listener) serve(c *wire.ServerConn) {
	var up session.Unpacker // this connection's string table
	// samples and shard are the connection's one batch and one shard:
	// fe.Report is synchronous and keeps neither (daemon.Transport), and the
	// ack goes out after.
	var samples []datasource.Sample
	var shard trace.Shard
	var f frame
	for {
		// gob leaves absent fields alone, so each frame decodes into a zeroed
		// one; only the packed bytes' buffer is kept (nothing unpacked from
		// it points into it).
		f = frame{Packed: f.Packed[:0]}
		if c.Read(&f) != nil {
			return
		}
		ev, ok := f.open(&up, &samples, &shard)
		if !ok {
			// Not a daemon: drop the connection, the frame neither applied nor acked.
			l.refused.Add(1)
			return
		}
		// A frame the daemon re-sent after a lost ack was already applied —
		// and one a dead incarnation sent must never apply. Both are still
		// acknowledged so the sender unblocks.
		ch, _ := daemon.ChannelOf(ev.Kind)
		if !l.dedupe.Seen(f.Daemon, ch, f.Inc, f.Seq) {
			l.fe.Report(ev)
		}
		if c.Reply(true) != nil { // ack
			return
		}
	}
}

// TCPTransport is the daemon-side transport: it frames each report, waits
// (with a deadline) for the front end's acknowledgement, and on failure
// retries through the wire plane, redialling as needed. When every attempt
// fails the error surfaces to the daemon, whose ctl or bulk queue holds the
// report for later replay. The two channels are two wire.Conns, locked
// separately, so a slow bulk send never blocks a sample send.
type TCPTransport struct {
	// name and inc are the identity stamped on every frame.
	name string
	inc  uint64

	ctl, bulk channel
	bulkDial  sync.Once // bulk's first connection waits for its first use
}

// channel is one wire.Conn plus the frame, the ack and the scratch its reports
// are sent through, all used only under the channel's send lock mu. stamp
// writes the assigned sequence number into f; it is built once, at dial, so
// a report allocates neither a frame nor a closure.
type channel struct {
	*wire.Conn
	mu     sync.Mutex
	f      frame
	ack    bool
	stamp  func(seq uint64)
	pk     session.Packer
	packed []byte
}

// pack returns report ev's packed form: a batch's and an update's built in
// the channel's scratch, a shard's the bytes it already is.
func (c *channel) pack(ev session.Event) []byte {
	switch ev.Kind {
	case session.EvSamples:
		c.packed = c.pk.PackSamples(c.packed[:0], ev.Samples)
	case session.EvShard:
		return ev.Shard.Packed()
	default: // a one-event section, whose slice stays on the stack
		c.packed = c.pk.PackEvents(c.packed[:0], []session.Event{ev})
	}
	return c.packed
}

// DialTransportRetry connects a daemon-side transport with explicit identity
// and retry configuration. name is the daemon identity used for reconnect
// dedupe; incarnation is stamped on every frame so the listener can fence
// out stragglers from dead incarnations of that daemon. Only the control
// channel is dialed here; the bulk channel comes up on its first use. The
// control channel draws jitter from the seed unsalted; the bulk channel
// salts it, so the two schedules are independent yet each deterministic.
func DialTransportRetry(addr, name string, incarnation uint64, cfg wire.Config) (*TCPTransport, error) {
	ctl, err := wire.Dial(addr, cfg, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("frontend: dial: %w", err)
	}
	t := &TCPTransport{name: name, inc: incarnation}
	t.ctl.Conn, t.bulk.Conn = ctl, wire.NewConn(addr, cfg, cfg.Seed^wire.SaltBulk)
	t.ctl.Injection().Chan = wire.ChanCtl
	t.bulk.Injection().Chan = wire.ChanBulk
	for _, c := range []*channel{&t.ctl, &t.bulk} {
		c.stamp = func(seq uint64) { c.f.Seq = seq }
	}
	return t, nil
}

// conn returns channel ch (wire.ChanBulk, else ctl), bringing bulk up (best
// effort: a failed dial retries inside Exchange) on first use. A closed
// transport stays down: TryDial does not resurrect a closed Conn.
func (t *TCPTransport) conn(ch string) *channel {
	if ch != wire.ChanBulk {
		return &t.ctl
	}
	t.bulkDial.Do(t.bulk.TryDial)
	return &t.bulk
}

// Close shuts both channels; subsequent sends fail fast with wire.ErrClosed.
func (t *TCPTransport) Close() error {
	err := t.ctl.Close()
	if berr := t.bulk.Close(); err == nil {
		err = berr
	}
	return err
}

// Stats returns a snapshot of channel ch's resilience counters (all zero
// for a bulk channel no shard was ever sent on).
func (t *TCPTransport) Stats(ch string) wire.Stats {
	if ch == wire.ChanBulk {
		return t.bulk.Stats()
	}
	return t.ctl.Stats()
}

// Injection returns the fault-injection point of channel ch (wire.ChanCtl
// or wire.ChanBulk): each armed failure consumes one attempt, exercising
// timeout, retry and reconnect exactly as a flaky network would, while the
// other channel's traffic flows untouched. Asking for the bulk channel's
// brings the channel up.
func (t *TCPTransport) Injection(ch string) *wire.Injection {
	return t.conn(ch).Injection()
}

// Report implements daemon.Transport: one report is one acknowledged frame
// on the channel its kind rides. The frame is the channel's own, built and
// packed under the channel's send lock, through the channel's scratch; ev's
// slices are only read, and nothing of ev is kept once Report returns.
func (t *TCPTransport) Report(ev session.Event) error {
	ch, _ := daemon.ChannelOf(ev.Kind)
	c := t.conn(ch)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.f = frame{Daemon: t.name, Inc: t.inc, Kind: ev.Kind, Packed: c.pack(ev)}
	err := c.Exchange(wire.Request{Req: &c.f, Stamp: c.stamp, Resp: &c.ack, Label: "frontend: send"})
	c.f = frame{}
	return err
}
