package wire

import (
	"encoding/gob"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultReadTimeout is the per-frame read deadline of every Server —
// generous enough that an idle-but-healthy peer is rarely cut, tight enough
// that a wedged peer cannot hold a serve goroutine forever.
const DefaultReadTimeout = 10 * time.Second

// A Server is the receive half of the wire plane: it owns the listening
// socket, the one accept goroutine, the closed flag, the per-frame read
// deadline and the receive-side counters. The stacks on top of it (the
// front end's report listener, the PerfDB sync server) supply only serve —
// what a frame means and what to answer.
type Server struct {
	ln          net.Listener
	readTimeout time.Duration
	wg          sync.WaitGroup
	closed      atomic.Bool

	frames, readTimeouts, acceptRetries atomic.Int64
}

// Listen starts a TCP server on addr ("127.0.0.1:0" picks a free port; Addr
// reports it). Each accepted connection is handed to serve on its own
// goroutine and closed when serve returns.
func Listen(addr string, serve func(*ServerConn)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newServer(ln, DefaultReadTimeout, serve), nil
}

// newServer runs the accept loop on ln; tests pass a scripted listener or a
// short read deadline.
func newServer(ln net.Listener, readTimeout time.Duration, serve func(*ServerConn)) *Server {
	s := &Server{ln: ln, readTimeout: readTimeout}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		AcceptLoop(ln, s.closed.Load, func() { s.acceptRetries.Add(1) }, &s.wg,
			func(c net.Conn) { serve(s.newConn(c)) })
	}()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for every in-flight serve to return.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Stats returns the receive-side counters: frames read, connections dropped
// by the read deadline, transient Accept errors retried.
func (s *Server) Stats() Stats {
	return Stats{
		Frames:        s.frames.Load(),
		ReadTimeouts:  s.readTimeouts.Load(),
		AcceptRetries: s.acceptRetries.Load(),
	}
}

// A ServerConn is one accepted connection: the gob codecs of its stream,
// read under the server's deadline and counted in the server's Stats.
type ServerConn struct {
	srv  *Server
	conn net.Conn
	dec  *gob.Decoder
	enc  *gob.Encoder
}

func (s *Server) newConn(c net.Conn) *ServerConn {
	return &ServerConn{srv: s, conn: c, dec: gob.NewDecoder(c), enc: gob.NewEncoder(c)}
}

// Read decodes the peer's next frame. Any error ends the connection: the
// peer hung up, sent garbage, or — counted as a read timeout — went mute
// past the deadline. A wedged (or merely idle) peer is dropped rather than
// parked on forever; a live sender redials on its next frame and the
// receiver's replay fencing absorbs whatever it re-sends.
func (c *ServerConn) Read(frame any) error {
	timedOut, err := ReadFrame(c.conn, c.dec, c.srv.readTimeout, frame)
	if err != nil {
		if timedOut {
			c.srv.readTimeouts.Add(1)
		}
		return err
	}
	c.srv.frames.Add(1)
	return nil
}

// Reply encodes the answer (or bare acknowledgement) to the frame just read.
func (c *ServerConn) Reply(v any) error { return c.enc.Encode(v) }

// AcceptLoop accepts connections on ln until it closes, handing each to
// handle on its own goroutine (tracked in wg; the connection is closed when
// handle returns). A transient Accept error (resource exhaustion, aborted
// handshake) is retried with a short linear delay — and reported through
// onTransient when non-nil — instead of silently killing the loop; only a
// closed listener, or persistent failure, ends it. Server runs this loop.
func AcceptLoop(ln net.Listener, closed func() bool, onTransient func(), wg *sync.WaitGroup, handle func(net.Conn)) {
	consecutive := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || closed() {
				return
			}
			consecutive++
			if consecutive > 10 {
				return // persistently failing listener; give up
			}
			if onTransient != nil {
				onTransient()
			}
			time.Sleep(time.Duration(consecutive) * time.Millisecond)
			continue
		}
		consecutive = 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			handle(conn)
		}()
	}
}

// ReadFrame decodes one frame from the connection under an optional read
// deadline (0 disables it), clearing the deadline on success. timedOut
// reports whether a decode failure was the deadline expiring — a wedged (or
// merely idle) peer. ServerConn.Read is the caller.
func ReadFrame(conn net.Conn, dec *gob.Decoder, timeout time.Duration, frame any) (timedOut bool, err error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
	}
	if err := dec.Decode(frame); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return true, err
		}
		return false, err
	}
	if timeout > 0 {
		conn.SetReadDeadline(time.Time{})
	}
	return false, nil
}

// LockTable hands out per-key mutexes (the sync server serializes writers
// of one partial upload by content hash). Entries are reference-counted and
// reaped as soon as the last holder releases, so the table's steady-state
// size is the number of concurrently held keys — a server fed ever-fresh
// hashes by redial churn no longer accumulates a mutex per hash forever.
type LockTable struct {
	mu   sync.Mutex
	ents map[string]*lockEnt
}

type lockEnt struct {
	mu   sync.Mutex
	refs int
}

// NewLockTable returns an empty table.
func NewLockTable() *LockTable { return &LockTable{ents: map[string]*lockEnt{}} }

// Acquire locks the key's mutex, creating it on first use, and returns the
// release that unlocks it (and deletes the entry once no holder or waiter
// remains). The reference is taken before blocking, so a waiter can never
// see its entry reaped underneath it.
func (t *LockTable) Acquire(key string) (release func()) {
	t.mu.Lock()
	e := t.ents[key]
	if e == nil {
		e = &lockEnt{}
		t.ents[key] = e
	}
	e.refs++
	t.mu.Unlock()
	e.mu.Lock()
	return func() {
		e.mu.Unlock()
		t.mu.Lock()
		e.refs--
		if e.refs == 0 {
			delete(t.ents, key)
		}
		t.mu.Unlock()
	}
}

// ValidHash reports whether h is a well-formed lowercase-hex SHA-256
// content address — the validation every wire peer applies before trusting
// a hash in a filename.
func ValidHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for _, r := range h {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}
