package wire_test

// Cross-stack equivalence: one fault plan, three stacks. The report
// transport's control and bulk channels and the PerfDB sync client used to
// carry three private retry/injection implementations; they now all ride
// internal/wire, so the same drop-transport budget must produce the
// identical resilience accounting — same retries, same injected-drop count,
// same backoff-schedule length, no failures — on every channel, reported
// through the one shared wire.Stats block.

import (
	"testing"
	"time"

	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/frontend"
	"pperf/internal/perfdb"
	"pperf/internal/session"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// Each case gives every channel the same total drop budget. The second
// splits it over two overlapping clauses per channel: budgets add on every
// stack (the TCP transport used to overwrite the first with the second).
var equivalenceCases = []struct {
	name, plan string
	want       int64 // injected drops per channel
}{
	{"one clause per channel", "seed=42; " +
		"t=0s drop-transport node0 n=2; " +
		"t=0s drop-transport node0 n=2 chan=bulk; " +
		"t=0s drop-transport node0 n=2 chan=sync", 2},
	{"overlapping clauses add", "seed=42; " +
		"t=0s drop-transport node0 n=2; t=0s drop-transport node0 n=2 chan=both; " +
		"t=0s drop-transport node0 n=2 chan=bulk; " +
		"t=0s drop-transport node0 n=2 chan=sync; t=0s drop-transport node0 n=2 chan=sync", 4},
}

// armReport arms a report transport from the plan's drop-transport clauses
// through faults.ArmDrops, the translation the live session applies.
func armReport(tr faults.Injectable, plan *faults.Plan) {
	for _, f := range plan.Faults {
		if f.Kind == faults.DropTransport {
			faults.ArmDrops(tr, f.N, f.Chan)
		}
	}
}

func TestCrossStackFaultPlanEquivalence(t *testing.T) {
	for _, tc := range equivalenceCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { crossStack(t, tc.plan, tc.want) })
	}

	// Receiver side: the same replayed frame sequence through each
	// channel's dedupe label yields identical per-channel accounting —
	// one window engine, three labels.
	d := wire.NewDedupe(0)
	for _, ch := range []string{wire.ChanCtl, wire.ChanBulk, wire.ChanSync} {
		d.Seen("peer", ch, 1, 1)
		d.Seen("peer", ch, 1, 2)
		d.Seen("peer", ch, 1, 2) // replay after a lost ack
		d.Seen("peer", ch, 2, 1) // respawned sender
		d.Seen("peer", ch, 1, 3) // dead-incarnation straggler
	}
	want := wire.Stats{Frames: 5, Duplicates: 1, StaleFrames: 1}
	for _, ch := range []string{wire.ChanCtl, wire.ChanBulk, wire.ChanSync} {
		got := d.ChannelStats(ch)
		if got.Frames != want.Frames || got.Duplicates != want.Duplicates || got.StaleFrames != want.StaleFrames {
			t.Errorf("%s dedupe stats = %+v, want %+v", ch, got, want)
		}
	}
}

// crossStack runs one plan over the TCP report transport (ctl + bulk), the
// sync client, and the in-process report transport, and requires each
// channel to have failed exactly want sends.
func crossStack(t *testing.T, planText string, want int64) {
	plan, err := faults.Parse(planText)
	if err != nil {
		t.Fatal(err)
	}

	// ctl + bulk over TCP: retries absorb every injected drop.
	fe := frontend.New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := wire.Config{
		MsgTimeout:  500 * time.Millisecond,
		MaxAttempts: 6,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        plan.Seed,
	}
	tr, err := frontend.DialTransportRetry(l.Addr(), "paradynd@node0", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	armReport(tr, plan)
	hb := session.Event{Kind: session.EvUpdate, Update: datasource.Update{Kind: datasource.UpHeartbeat}}
	if err := tr.Report(hb); err != nil {
		t.Fatalf("ctl send under plan: %v", err)
	}
	sh := session.Event{Kind: session.EvShard, Shard: &trace.Shard{Proc: "p0", Node: "node0", Spans: []trace.Span{{Name: "compute"}}}}
	if err := tr.Report(sh); err != nil {
		t.Fatalf("bulk send under plan: %v", err)
	}

	// sync: the same plan handed to the sync client, which arms its own
	// wire injection point from the chan=sync clause.
	remote, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := perfdb.Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	local, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, syncStats, err := perfdb.Pull(local, srv.Addr(), "", perfdb.SyncConfig{Config: cfg, Faults: plan})
	if err != nil {
		t.Fatalf("sync under plan: %v", err)
	}

	// Every channel consumed its whole budget through the shared plane:
	// identical accounting, channel by channel.
	byChan := map[string]wire.Stats{
		wire.ChanCtl:  tr.Stats(wire.ChanCtl),
		wire.ChanBulk: tr.Stats(wire.ChanBulk),
		wire.ChanSync: *syncStats,
	}
	for ch, st := range byChan {
		if st.Retries != want || st.InjectedDrops != want || int64(len(st.Backoffs)) != want {
			t.Errorf("%s: retries=%d injected=%d backoffs=%d, want %d of each",
				ch, st.Retries, st.InjectedDrops, len(st.Backoffs), want)
		}
		if st.Failures != 0 || st.Duplicates != 0 || st.StaleFrames != 0 {
			t.Errorf("%s: failures=%d dups=%d stale=%d, want all 0",
				ch, st.Failures, st.Duplicates, st.StaleFrames)
		}
		if st.Frames == 0 {
			t.Errorf("%s: no frames delivered despite retry budget", ch)
		}
	}

	// In process there is no wire to retry on: each injected drop fails one
	// send outright (the daemon's queues absorb it), want of them per
	// channel, and the next send goes through.
	ft := faults.NewFlakyTransport(frontend.New())
	armReport(ft, plan)
	sends := map[string]func() error{
		wire.ChanCtl:  func() error { return ft.Report(hb) },
		wire.ChanBulk: func() error { return ft.Report(sh) },
	}
	for ch, send := range sends {
		var failed int64
		for send() != nil {
			failed++
		}
		if failed != want || ft.Injection(ch).Dropped() != want {
			t.Errorf("in-process %s: %d sends failed, %d drops counted, want %d", ch, failed, ft.Injection(ch).Dropped(), want)
		}
	}
}
