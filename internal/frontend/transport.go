package frontend

import (
	"fmt"
	"sync"

	"pperf/internal/daemon"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// The TCP transport carries daemon reports to the front end over real
// sockets with gob encoding — the shape of a deployment where daemons run on
// cluster nodes and the front end on the user's workstation. Each message is
// acknowledged before the daemon proceeds, so delivery order (and therefore
// front-end state) stays deterministic even though the listener runs on its
// own goroutine.
//
// Each daemon holds up to two independent channels to the front end:
//
//   - the control channel carries sample batches and resource updates — the
//     latency-sensitive sampling path;
//   - the bulk channel (dialed lazily on the first trace shard) carries
//     trace.Shard traffic, so arbitrarily large trace volume never queues
//     behind — or delays — a sample batch.
//
// Both channels are wire.Conns (see internal/wire): every message carries
// the sending daemon's identity, its channel, and a per-channel sequence
// number, each send has a wall-clock deadline, failures trigger bounded
// seeded-jitter retry with a reconnect, and the front end dedupes replayed
// messages per (daemon, channel) — so an ack lost to a half-closed socket
// cannot double-apply a sample batch or a shard, and a reconnect resyncs
// without disturbing determinism. This file owns only what the frames mean;
// the reliability discipline lives in the wire plane.

// Channel labels stamped on wire frames. The control channel uses the empty
// string so pre-bulk-channel captures decode (and dedupe) unchanged.
const (
	ctlChannel  = ""
	bulkChannel = wire.ChanBulk
)

// wireMsg is the single message frame exchanged on the wire.
type wireMsg struct {
	// Daemon, Chan and Seq identify and order the frame for reconnect
	// dedupe. Seq is per-daemon-per-channel and strictly increasing; Seq 0
	// (legacy senders) bypasses dedupe.
	Daemon string
	Chan   string
	Seq    uint64
	// Inc is the sending daemon incarnation. A frame from an incarnation
	// older than the newest one seen is a straggler from a dead daemon:
	// the listener acknowledges it (so the sender unblocks) but never
	// applies it. A newer incarnation resets the channel's seq space. Inc
	// 0 (legacy senders) keeps pure-seq dedupe.
	Inc uint64

	Samples []daemon.Sample
	Update  *daemon.Update
	Shard   *trace.Shard
}

// Listener accepts daemon connections for a front end: a wire.Server whose
// frames are wireMsgs. Control and bulk connections land on the same
// listening socket; frames declare their channel.
type Listener struct {
	*wire.Server
	fe *FrontEnd

	// dedupe fences replays and dead-incarnation stragglers per
	// (daemon, channel); its window table is bounded, so a long-lived
	// listener fed ever-fresh daemon identities reaches a steady state.
	dedupe *wire.Dedupe
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
// server's dropped-connection and accept counters are reported with ctl.
func (l *Listener) WireStats(ch string) wire.Stats {
	s := l.dedupe.ChannelStats(ch)
	if ch != wire.ChanBulk {
		srv := l.Stats()
		s.ReadTimeouts, s.AcceptRetries = srv.ReadTimeouts, srv.AcceptRetries
	}
	return s
}

// serve applies one daemon connection's frames to the front end.
func (l *Listener) serve(c *wire.ServerConn) {
	for {
		var msg wireMsg
		if c.Read(&msg) != nil {
			return
		}
		// A frame the daemon re-sent after a lost ack was already applied —
		// and one a dead incarnation sent must never apply. Both are still
		// acknowledged so the sender unblocks.
		if !l.dedupe.Seen(msg.Daemon, msg.Chan, msg.Inc, msg.Seq) {
			if msg.Samples != nil {
				l.fe.Samples(msg.Samples)
			}
			if msg.Update != nil {
				l.fe.Update(*msg.Update)
			}
			if msg.Shard != nil {
				l.fe.Shard(*msg.Shard)
			}
		}
		if c.Reply(true) != nil { // ack
			return
		}
	}
}

// tcpChannel is one independent acknowledged gob stream to the front end: a
// wire.Conn plus the identity (daemon name, channel label, incarnation) it
// stamps on every frame. The control and bulk channels of a TCPTransport
// are two of these, locked separately inside their Conns so a slow bulk
// send never blocks a sample send.
type tcpChannel struct {
	label string
	name  string
	inc   uint64
	conn  *wire.Conn
}

// send delivers one frame on channel c through the wire plane's retrying
// Exchange.
func (c *tcpChannel) send(msg wireMsg) error {
	var ack bool
	return c.conn.Exchange(wire.Request{
		Req: &msg,
		Stamp: func(seq uint64) {
			msg.Daemon = c.name
			msg.Chan = c.label
			msg.Inc = c.inc
			msg.Seq = seq
		},
		Resp:  &ack,
		Label: "frontend: send",
	})
}

// TCPTransport is the daemon-side transport: it gob-encodes each report,
// waits (with a deadline) for the front end's acknowledgement, and on
// failure retries through the wire plane, redialling as needed. When every
// attempt fails the error surfaces to the daemon, whose outbox (control) or
// bulk queue (trace shards) buffers the report for later replay. Trace
// shards move on a dedicated bulk connection so the sampling path's latency
// is independent of trace volume.
type TCPTransport struct {
	addr string
	cfg  wire.Config

	ctl tcpChannel

	bulkMu sync.Mutex // guards lazy creation of bulk
	bulk   *tcpChannel
}

// DialTransportRetry connects a daemon-side transport with explicit identity
// and retry configuration. name is the daemon identity used for reconnect
// dedupe; empty disables dedupe (every frame applies). incarnation is
// stamped on every frame so the listener can fence out stragglers from dead
// incarnations of that daemon; 0 sends legacy frames with pure-seq dedupe.
// Only the control channel is dialed here; the bulk channel comes up lazily
// on the first trace shard. The control channel draws jitter from the seed
// unsalted; the bulk channel salts it, so the two schedules are independent
// yet each deterministic.
func DialTransportRetry(addr, name string, incarnation uint64, cfg wire.Config) (*TCPTransport, error) {
	t := &TCPTransport{addr: addr, cfg: cfg}
	conn, err := wire.Dial(addr, cfg, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("frontend: dial: %w", err)
	}
	conn.Injection().Chan = wire.ChanCtl
	t.ctl = tcpChannel{label: ctlChannel, name: name, inc: incarnation, conn: conn}
	return t, nil
}

// bulkChan returns the bulk channel, creating (and best-effort dialing) it
// on first use.
func (t *TCPTransport) bulkChan() *tcpChannel {
	t.bulkMu.Lock()
	defer t.bulkMu.Unlock()
	if t.bulk == nil {
		t.bulk = &tcpChannel{
			label: bulkChannel, name: t.ctl.name, inc: t.ctl.inc,
			conn: wire.NewConn(t.addr, t.cfg, t.cfg.Seed^wire.SaltBulk),
		}
		t.bulk.conn.Injection().Chan = wire.ChanBulk
		t.bulk.conn.TryDial() // a failed dial retries inside send
	}
	return t.bulk
}

// Close shuts both channels; subsequent sends fail fast.
func (t *TCPTransport) Close() error {
	err := t.ctl.conn.Close()
	t.bulkMu.Lock()
	b := t.bulk
	t.bulkMu.Unlock()
	if b != nil {
		if berr := b.conn.Close(); err == nil {
			err = berr
		}
	}
	return err
}

// Stats returns a snapshot of the control channel's resilience counters.
func (t *TCPTransport) Stats() wire.Stats { return t.ctl.conn.Stats() }

// BulkStats returns a snapshot of the bulk channel's resilience counters
// (all zero if no shard was ever sent).
func (t *TCPTransport) BulkStats() wire.Stats {
	t.bulkMu.Lock()
	b := t.bulk
	t.bulkMu.Unlock()
	if b == nil {
		return wire.Stats{}
	}
	return b.conn.Stats()
}

// Injection returns the fault-injection point of channel ch (wire.ChanCtl
// or wire.ChanBulk): each armed failure consumes one attempt, exercising
// timeout, retry and reconnect exactly as a flaky network would, while the
// other channel's traffic flows untouched. Asking for the bulk channel's
// brings the channel up.
func (t *TCPTransport) Injection(ch string) *wire.Injection {
	if ch == wire.ChanBulk {
		return t.bulkChan().conn.Injection()
	}
	return t.ctl.conn.Injection()
}

// Samples implements daemon.Transport.
func (t *TCPTransport) Samples(batch []daemon.Sample) error {
	return t.ctl.send(wireMsg{Samples: batch})
}

// Update implements daemon.Transport.
func (t *TCPTransport) Update(u daemon.Update) error {
	return t.ctl.send(wireMsg{Update: &u})
}

// Shard implements daemon.Transport: trace shards ride their own
// acknowledged, deduped, retrying stream — never the sampling path.
func (t *TCPTransport) Shard(sh trace.Shard) error {
	return t.bulkChan().send(wireMsg{Shard: &sh})
}
