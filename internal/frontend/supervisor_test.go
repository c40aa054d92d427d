package frontend

import (
	"encoding/gob"
	"net"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/wire"
)

// A daemon silent for EXACTLY the detection timeout is not yet stale: the
// liveness predicate is strictly greater-than, so the boundary tick leaves
// the daemon healthy and only the next one condemns it.
func TestLivenessExactTimeoutNotStale(t *testing.T) {
	fe := New()
	fe.Report(update(datasource.Update{Kind: datasource.UpHeartbeat, Daemon: "paradynd@node0", Time: 0}))
	timeout := 500 * sim.Millisecond

	// SilentDaemons at a later time with no grace lists every daemon heard
	// from and not yet marked stale.
	later := sim.Time(sim.Second)
	fe.checkLiveness(sim.Time(timeout), timeout) // silence == timeout exactly
	if hs := fe.SilentDaemons(later, 0); len(hs) != 1 {
		t.Fatalf("daemon stale after exactly-timeout silence: healthy %v", hs)
	}

	fe.checkLiveness(sim.Time(timeout)+1, timeout) // one tick past the boundary
	if hs := fe.SilentDaemons(later, 0); len(hs) != 0 {
		t.Fatalf("daemon not stale past the timeout: healthy %v", hs)
	}
}

// sendFrame pushes one frame and waits for the ack.
func sendFrame(t *testing.T, enc *gob.Encoder, dec *gob.Decoder, msg frame) {
	t.Helper()
	if err := enc.Encode(&msg); err != nil {
		t.Fatal(err)
	}
	var ack bool
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
}

// Frames from a dead daemon incarnation must be acknowledged (so the
// straggler sender unblocks) but never applied; a newer incarnation resets
// the channel's sequence space so the respawned daemon can number its
// frames from 1 again.
func TestListenerFencesStaleIncarnationFrames(t *testing.T) {
	fe := New()
	f := resource.WholeProgram()
	fe.RegisterSeries("m", f)
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	mk := func(inc, seq uint64, delta float64) frame {
		return sealed(frame{
			Daemon: "paradynd@node0",
			Chan:   wire.ChanCtl,
			Inc:    inc,
			Seq:    seq,
			Event:  samples(sample("m", f, "p0", sim.Time(sim.Second), delta)),
		})
	}

	sendFrame(t, enc, dec, mk(1, 1, 5))   // incarnation 1 applies
	sendFrame(t, enc, dec, mk(2, 1, 7))   // incarnation 2: seq space resets, applies
	sendFrame(t, enc, dec, mk(1, 2, 100)) // dead-incarnation straggler: acked, dropped
	if got := fe.Series("m", f).Total(); got != 12 {
		t.Errorf("total = %v, want 12 (stale-incarnation frame applied?)", got)
	}
	if got := l.WireStats(wire.ChanCtl).StaleFrames; got != 1 {
		t.Errorf("stale frames = %d, want 1", got)
	}

	// Within the new incarnation, plain seq dedupe still works.
	sendFrame(t, enc, dec, mk(2, 1, 3))
	if got := fe.Series("m", f).Total(); got != 12 {
		t.Errorf("total = %v, want 12 (replayed frame applied twice?)", got)
	}
	if got := l.WireStats(wire.ChanCtl).Duplicates; got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
}
