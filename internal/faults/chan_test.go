package faults_test

// Tests for the drop-transport chan= option and the FlakyTransport's
// independent control/bulk failure budgets.

import (
	"testing"

	"pperf/internal/faults"
	"pperf/internal/session"
	"pperf/internal/wire"
)

func TestParseDropTransportChan(t *testing.T) {
	p, err := faults.Parse("t=1s drop-transport node0 n=3 chan=bulk; t=2s drop-transport node1 n=1 chan=both")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 2 {
		t.Fatalf("faults = %d, want 2", len(p.Faults))
	}
	if p.Faults[0].Chan != faults.ChanBulk || p.Faults[1].Chan != faults.ChanBoth {
		t.Errorf("chans = %q, %q", p.Faults[0].Chan, p.Faults[1].Chan)
	}
	// String round-trips through Parse.
	q, err := faults.Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if q.Faults[0].Chan != faults.ChanBulk || q.Faults[1].Chan != faults.ChanBoth {
		t.Errorf("round-trip lost chan: %q", q.String())
	}
	// An unadorned clause keeps the legacy meaning (empty = control).
	p, err = faults.Parse("t=1s drop-transport node0 n=3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults[0].Chan != "" {
		t.Errorf("default chan = %q, want empty (control)", p.Faults[0].Chan)
	}
}

func TestParseChanErrors(t *testing.T) {
	for _, text := range []string{
		"t=1s drop-transport node0 n=3 chan=wifi", // unknown channel
		"t=1s hang-daemon node0 for=1s chan=bulk", // wrong verb
	} {
		if _, err := faults.Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

// bulkFE is a minimal Transport backend for FlakyTransport tests.
type bulkFE struct {
	samples int
	shards  int
}

func (f *bulkFE) Report(ev session.Event) error {
	switch ev.Kind {
	case session.EvSamples:
		f.samples++
	case session.EvShard:
		f.shards++
	}
	return nil
}

var (
	aShard   = session.Event{Kind: session.EvShard}
	aSamples = session.Event{Kind: session.EvSamples}
)

func TestFlakyTransportChannelsFailIndependently(t *testing.T) {
	fe := &bulkFE{}
	ft := faults.NewFlakyTransport(fe)

	faults.ArmDrops(ft, 2, faults.ChanBulk)
	if err := ft.Report(aShard); err == nil {
		t.Fatal("bulk send should fail while bulk budget remains")
	}
	if err := ft.Report(aSamples); err != nil {
		t.Fatalf("control send failed under bulk-only faults: %v", err)
	}
	if err := ft.Report(aShard); err == nil {
		t.Fatal("second bulk send should consume the remaining budget")
	}
	if err := ft.Report(aShard); err != nil {
		t.Fatalf("bulk send after budget drained: %v", err)
	}
	ctl, bulk := ft.Injection(wire.ChanCtl), ft.Injection(wire.ChanBulk)
	if bulk.Dropped() != 2 || ctl.Dropped() != 0 {
		t.Errorf("dropped ctl=%d bulk=%d, want 0 and 2", ctl.Dropped(), bulk.Dropped())
	}

	faults.ArmDrops(ft, 1, "")
	if err := ft.Report(aSamples); err == nil {
		t.Fatal("control send should fail while control budget remains")
	}
	if err := ft.Report(aShard); err != nil {
		t.Fatalf("bulk send failed under control-only faults: %v", err)
	}
	if fe.samples != 1 || fe.shards != 2 {
		t.Errorf("inner saw samples=%d shards=%d, want 1 and 2", fe.samples, fe.shards)
	}
}
