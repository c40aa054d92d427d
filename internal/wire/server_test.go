package wire

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeListener scripts Accept results: a sequence of transient errors, then
// closure.
type fakeListener struct {
	mu     sync.Mutex
	errs   []error
	closed chan struct{}
	once   sync.Once
}

func (f *fakeListener) Accept() (net.Conn, error) {
	f.mu.Lock()
	if len(f.errs) > 0 {
		e := f.errs[0]
		f.errs = f.errs[1:]
		f.mu.Unlock()
		return nil, e
	}
	f.mu.Unlock()
	<-f.closed
	return nil, net.ErrClosed
}

func (f *fakeListener) Close() error {
	f.once.Do(func() { close(f.closed) })
	return nil
}

func (f *fakeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	fl := &fakeListener{
		errs:   []error{errors.New("accept: too many open files"), errors.New("accept: connection aborted")},
		closed: make(chan struct{}),
	}
	s := newServer(fl, DefaultReadTimeout, func(*ServerConn) {})
	waitFor(t, "transient accept errors not retried twice", func() bool { return s.Stats().AcceptRetries >= 2 })
	if got := s.Stats().AcceptRetries; got != 2 {
		t.Errorf("accept retries = %d, want 2", got)
	}
	// Closing ends the loop despite earlier errors.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// A peer that connects and then goes mute must be dropped by the per-frame
// read deadline instead of parking a serve goroutine forever.
func TestServerReadDeadlineDropsWedgedPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(ln, 30*time.Millisecond, func(c *ServerConn) {
		var frame fuzzFrame
		for c.Read(&frame) == nil {
			c.Reply(true)
		}
	})
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Send nothing; the server must cut us loose.
	waitFor(t, "read deadline never fired for a mute peer", func() bool { return s.Stats().ReadTimeouts > 0 })
	if st := s.Stats(); st.ReadTimeouts != 1 || st.Frames != 0 {
		t.Errorf("stats = %+v, want 1 read timeout, 0 frames", st)
	}
	// The server closed its end: our next read observes it.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after the read deadline fired")
	}
}

// Close must not return while a serve call is still running: the stacks'
// serve loops touch state their owners tear down right after Close.
func TestServerCloseWaitsForInFlightServe(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s, err := Listen("127.0.0.1:0", func(*ServerConn) {
		close(entered)
		<-release
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while serve was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after serve did")
	}
	// The accepted connection was closed when serve returned.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after Close")
	}
}
