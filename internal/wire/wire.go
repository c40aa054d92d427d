// Package wire is the shared reliability plane under every byte stream the
// tool moves between machines: daemon→front-end control samples, bulk trace
// shards, and PerfDB store-sync transfers. The three stacks used to carry
// three independent copies of the same discipline; they now all ride this
// one implementation of it:
//
//   - framed gob streams with a per-connection sequence space, so a
//     receiver can recognize replays after a lost acknowledgement;
//   - incarnation fencing, so frames from a dead sender incarnation are
//     acknowledged (unblocking the straggler) but never applied;
//   - per-chunk CRC32-IEEE payload checksums (Checksum), the same
//     integrity check the PPDBA2 archive format uses on disk;
//   - bounded exponential retry with seeded jitter (Backoff) and a full
//     redial between attempts — a gob stream is stateful, so a failed
//     connection is always replaced, never resumed;
//   - per-(peer,channel) dedupe windows on the receiving side (Dedupe),
//     bounded so a long-lived listener cannot accumulate state forever;
//   - deterministic fault injection (Injection) keyed by the same plan
//     language every channel shares (chan=ctl|bulk|sync);
//   - one receive side (Server, ServerConn): the listening socket, accept
//     loop, per-frame read deadline and gob codecs of every service;
//   - one uniform Stats block (frames, retries, reconnects, duplicates,
//     stale-incarnation drops, read timeouts, injected drops) so every
//     channel reports resilience activity the same way.
//
// The package deliberately knows nothing about what the frames mean: frame
// types stay with their stacks (frontend's frame, perfdb's syncReq), and
// wire moves them reliably.
package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"time"

	"pperf/internal/sim"
)

// Channel names shared across the planes: the label frames carry on the wire
// and the key summaries report under.
const (
	ChanCtl  = "ctl"
	ChanBulk = "bulk"
	ChanSync = "sync"
)

// Seed salts deriving each channel's jitter stream from one configured
// seed, keeping the channels' schedules independent yet each deterministic.
// The control channel uses the seed unsalted (its historical stream).
const (
	SaltBulk = 0x62756c6b // "bulk"
	SaltSync = 0x73796e63 // "sync"
	// SaltBW further derives the degrade-link failure draw from the sync
	// stream so injected frame failures never perturb the retry schedule.
	SaltBW = 0xbead
)

// Checksum is the one payload checksum of the wire plane (and of the PPDBA2
// archive chunk format): CRC32 with the IEEE polynomial.
func Checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Config tunes a Conn's retry behaviour — nothing else, so a stack's own
// config can embed it whole.
type Config struct {
	// MsgTimeout is the wall-clock deadline for one attempt (encode + reply).
	MsgTimeout time.Duration
	// MaxAttempts bounds tries per frame (first send included). When all
	// fail, Exchange returns an error and the caller's fallback (outbox,
	// CLI error) takes over.
	MaxAttempts int
	// BaseBackoff/MaxBackoff bound the exponential delay between attempts.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the jitter RNG; equal seeds give identical retry
	// schedules (deterministic retries). Channels salt it (SaltBulk,
	// SaltSync) to decorrelate their streams.
	Seed uint64
}

// DefaultConfig returns production-shaped retry behaviour.
func DefaultConfig() Config {
	return Config{
		MsgTimeout:  2 * time.Second,
		MaxAttempts: 5,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		Seed:        1,
	}
}

// Stats is the uniform resilience-counter block every channel reports.
// Sender-side Conns fill the send counters; receiver-side Servers and Dedupe
// windows fill the receive counters; summaries merge the two views.
type Stats struct {
	Frames        int64 // frame exchanges acknowledged (sender) or applied (receiver)
	Retries       int64 // attempts beyond the first
	Reconnects    int64 // successful redials
	Failures      int64 // frames given up on after MaxAttempts
	Duplicates    int64 // receiver: replayed frames skipped by dedupe
	StaleFrames   int64 // receiver: frames fenced out as dead-incarnation stragglers
	ReadTimeouts  int64 // receiver: connections dropped by the per-frame read deadline
	AcceptRetries int64 // receiver: transient Accept errors retried
	Refused       int64 // receiver: connections dropped for a frame no sender produces
	InjectedDrops int64 // attempts failed by fault injection
	// Backoffs records every retry delay chosen, in order — the observable
	// surface for determinism tests.
	Backoffs []time.Duration
}

// Add folds o's counters into s (Backoffs are appended in order).
func (s *Stats) Add(o Stats) {
	s.Frames += o.Frames
	s.Retries += o.Retries
	s.Reconnects += o.Reconnects
	s.Failures += o.Failures
	s.Duplicates += o.Duplicates
	s.StaleFrames += o.StaleFrames
	s.ReadTimeouts += o.ReadTimeouts
	s.AcceptRetries += o.AcceptRetries
	s.Refused += o.Refused
	s.InjectedDrops += o.InjectedDrops
	s.Backoffs = append(s.Backoffs, o.Backoffs...)
}

// Summary renders the counters as the one-line per-channel form the CLI
// prints: frames/retries/dups/stale first (the headline numbers), then
// whatever else is non-zero.
func (s Stats) Summary() string {
	line := fmt.Sprintf("frames=%d retries=%d dups=%d stale=%d", s.Frames, s.Retries, s.Duplicates, s.StaleFrames)
	if s.Reconnects > 0 {
		line += fmt.Sprintf(" reconnects=%d", s.Reconnects)
	}
	if s.Failures > 0 {
		line += fmt.Sprintf(" failures=%d", s.Failures)
	}
	if s.InjectedDrops > 0 {
		line += fmt.Sprintf(" injected=%d", s.InjectedDrops)
	}
	if s.ReadTimeouts > 0 {
		line += fmt.Sprintf(" read-timeouts=%d", s.ReadTimeouts)
	}
	if s.AcceptRetries > 0 {
		line += fmt.Sprintf(" accept-retries=%d", s.AcceptRetries)
	}
	if s.Refused > 0 {
		line += fmt.Sprintf(" refused=%d", s.Refused)
	}
	return line
}

// Backoff computes one retry delay: BaseBackoff doubled n times (n is the
// count of prior retries), capped at MaxBackoff, with seeded jitter drawn
// into [d/2, d). It is the single implementation of the schedule every
// stack used to carry privately (TCP channels, the sync client, and — over
// virtual time — the supervisor's respawn policy); the sequence is a pure
// function of the seed and the failure history, so retries under simulated
// faults are exactly reproducible.
func Backoff(base, max time.Duration, n int, rng *sim.RNG) time.Duration {
	d := base
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < n; i++ {
		d *= 2
		if max > 0 && d >= max {
			d = max
			break
		}
	}
	half := d / 2
	return half + time.Duration(rng.Uint64()%uint64(half+1))
}

// ErrClosed is returned by sends on a Close()d Conn.
var ErrClosed = errors.New("wire: transport closed")

// A Conn is one retrying, reconnecting, acknowledged gob frame channel to a
// peer — its own connection, sequence space, jitter RNG, fault-injection
// point and stats: the send half of the plane (Server is the receive half).
// Both the report transport's channels and the sync client are Conns under
// thin frame-specific wrappers.
type Conn struct {
	mu     sync.Mutex
	addr   string
	cfg    Config
	conn   net.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	seq    uint64
	rng    *sim.RNG
	inj    *Injection
	closed bool
	stats  Stats
}

// NewConn builds a channel to addr without dialing; seed is the (already
// salted) jitter seed. Use Dial for the connect-or-fail path, TryDial for
// best-effort lazy channels.
func NewConn(addr string, cfg Config, seed uint64) *Conn {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	return &Conn{addr: addr, cfg: cfg, rng: sim.NewRNG(seed), inj: NewInjection("")}
}

// Dial builds the channel and establishes its first connection.
func Dial(addr string, cfg Config, seed uint64) (*Conn, error) {
	c := NewConn(addr, cfg, seed)
	c.mu.Lock()
	err := c.redialLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// TryDial attempts the first connection but keeps the channel usable on
// failure: the first Exchange retries from scratch. A closed channel stays
// closed.
func (c *Conn) TryDial() {
	c.mu.Lock()
	if !c.closed {
		c.redialLocked()
	}
	c.mu.Unlock()
}

// Injection returns the channel's fault-injection point, consulted before
// every attempt. It starts idle; fault plans arm it (AddDrops, Degrade), and
// the channel's owner labels it (Injection.Chan) before first use.
func (c *Conn) Injection() *Injection { return c.inj }

// Close shuts the channel; subsequent Exchanges fail fast with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Stats returns a snapshot of the channel's resilience counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Backoffs = append([]time.Duration(nil), c.stats.Backoffs...)
	return s
}

// redialLocked (re)establishes the connection and fresh gob codecs. A gob
// stream is stateful, so any failed connection must be fully replaced.
func (c *Conn) redialLocked() error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	timeout := c.cfg.MsgTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.enc = gob.NewEncoder(conn)
	c.dec = gob.NewDecoder(conn)
	return nil
}

// attemptLocked performs one deadline-bounded encode+reply round trip.
func (c *Conn) attemptLocked(req, resp any) error {
	if c.conn == nil {
		return errors.New("no connection")
	}
	if c.cfg.MsgTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.cfg.MsgTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(req); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	if err := c.dec.Decode(resp); err != nil {
		// A half-closed or dead socket surfaces here as an error (or a
		// deadline timeout) instead of a silent hang.
		return fmt.Errorf("awaiting reply: %w", err)
	}
	return nil
}

// Request describes one frame exchange for Conn.Exchange.
type Request struct {
	// Req is the frame to encode. Stamp is called under the send lock with
	// the frame's assigned sequence number before the first attempt; the
	// caller copies it (and any identity fields) into Req there, so
	// concurrent senders cannot interleave seq assignment and delivery.
	Req   any
	Stamp func(seq uint64)
	// Resp is the pointer the reply is decoded into. It is zeroed before
	// every attempt — or, if it has a Reset method, reset by it, so it may
	// keep a payload buffer for the decode — because gob omits zero fields,
	// and a retried decode into a dirty struct would otherwise merge stale
	// state.
	Resp any
	// Fault, when non-nil, is consulted before each attempt, ahead of the
	// channel's Injection; a non-nil return fails that attempt as an
	// injected transport fault and is counted in Stats.InjectedDrops. Tests
	// use it to fail one exact frame.
	Fault func(attempt int) error
	// Label prefixes the exhaustion error, e.g. "frontend: send" or
	// "perfdb sync: push-chunk".
	Label string
}

// Exchange delivers one frame and decodes its reply, retrying with seeded
// jitter and a full redial between attempts. The retry schedule, stats
// accounting and failure semantics are the single implementation every
// channel shares.
func (c *Conn) Exchange(r Request) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.seq++
	if r.Stamp != nil {
		r.Stamp(c.seq)
	}

	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.stats.Retries++
			d := Backoff(c.cfg.BaseBackoff, c.cfg.MaxBackoff, attempt-2, c.rng)
			c.stats.Backoffs = append(c.stats.Backoffs, d)
			time.Sleep(d)
			if err := c.redialLocked(); err != nil {
				lastErr = err
				continue
			}
			c.stats.Reconnects++
		}
		if err := c.injected(r, attempt); err != nil {
			lastErr = err
			c.stats.InjectedDrops++
			continue
		}
		zero(r.Resp)
		if err := c.attemptLocked(r.Req, r.Resp); err != nil {
			lastErr = err
			// The gob stream is now poisoned; force a redial next attempt.
			if c.conn != nil {
				c.conn.Close()
				c.conn = nil
			}
			continue
		}
		c.stats.Frames++
		return nil
	}
	c.stats.Failures++
	return fmt.Errorf("%s failed after %d attempts: %w", r.Label, c.cfg.MaxAttempts, lastErr)
}

// injected consults the fault sources before one attempt: the request's
// own hook, then the channel's injection point (skipped while idle, so
// fault-free runs pay one lock and three compares).
func (c *Conn) injected(r Request, attempt int) error {
	if r.Fault != nil {
		if err := r.Fault(attempt); err != nil {
			return err
		}
	}
	if c.inj.Idle() {
		return nil
	}
	return c.inj.Check()
}
