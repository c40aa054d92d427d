package perfdb_test

// Integration against the real harness: re-encoded archives must replay
// byte-identically to the recording they came from, the streaming recorder
// must capture exactly the state the live run held in memory, and a store
// of two recorded runs must produce a deterministic ranked regression
// report.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pperf/internal/consultant"
	"pperf/internal/datasource"
	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/session"
	"pperf/internal/trace"
)

// fingerprint renders everything a replay consumer observes about a
// Result, so two replays can be compared byte for byte.
func fingerprint(t *testing.T, res *pperfmark.Result) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "program=%s impl=%s runtime=%v probes=%d coverage=%.4f\n",
		res.Program, res.Impl, res.RunTime, res.ProbeExecs, res.Coverage)
	for _, ev := range res.FaultLog {
		fmt.Fprintln(&b, "fault:", ev)
	}
	if res.PC != nil {
		b.WriteString(res.PC.Render())
		var walk func(n *consultant.Node, depth int)
		walk = func(n *consultant.Node, depth int) {
			fmt.Fprintf(&b, "%*s%s %s true=%v pruned=%v partial=%v/%v %.4f\n", 2*depth, "",
				n.Hypothesis, n.Focus, n.True, n.Pruned, n.Partial, n.GapPartial, n.Value)
			for _, ch := range n.Children {
				walk(ch, depth+1)
			}
		}
		for _, r := range res.PC.Roots() {
			walk(r, 0)
		}
		b.WriteString(res.PC.Export().String())
		b.WriteByte('\n')
	}
	b.WriteString(res.Source.Hierarchy().Render())
	csv := res.Source.(interface {
		ExportCSV(s *datasource.Series) string
	})
	if res.BytesSent != nil {
		b.WriteString(csv.ExportCSV(res.BytesSent))
	}
	return b.String()
}

// record runs a program live, streaming the session to disk in chunks of
// chunkEvents (0 = the default), and returns the live result with the
// loaded recording.
func record(t *testing.T, prog string, opt pperfmark.RunOptions, chunkEvents int) (*pperfmark.Result, *session.Archive) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ppdb")
	rec, err := perfdb.NewStreamRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	if chunkEvents > 0 {
		rec.SetChunkEvents(chunkEvents)
	}
	opt.Record = rec
	res, err := pperfmark.Run(prog, opt)
	if err != nil {
		rec.Abort()
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if chunkEvents > 0 && rec.PeakBufferedEvents() > chunkEvents {
		t.Errorf("streaming recorder buffered %d events; chunk size is %d", rec.PeakBufferedEvents(), chunkEvents)
	}
	if opt.Trace == nil {
		// The writer's 4 MiB byte bound must never be what cuts an untraced
		// chunk (those stay byte-identical to what they always were): the
		// largest frame of a real untraced recording is nowhere near it.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for pos := len("PPDBA1"); pos < len(data); {
			n := int(binary.BigEndian.Uint32(data[pos+1 : pos+5]))
			if n > 1<<20 {
				t.Errorf("untraced recording of %s holds a %q chunk of %d bytes", prog, data[pos], n)
			}
			pos += 9 + n
		}
	}
	a, err := perfdb.LoadAny(path)
	if err != nil {
		t.Fatal(err)
	}
	return res, a
}

// compact round-trips an archive through the chunked encoder.
func compact(t *testing.T, a *session.Archive) *session.Archive {
	t.Helper()
	var buf bytes.Buffer
	if err := perfdb.WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := perfdb.ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated {
		t.Fatal("compacted archive loaded as truncated")
	}
	return got
}

func replayFingerprint(t *testing.T, a *session.Archive) string {
	t.Helper()
	res, err := pperfmark.Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, res)
}

// TestCompactionReplayIdentical is the acceptance bar: an archive
// re-encoded through WriteArchive (the store's ingest path) replays
// byte-for-byte identically to the recording it was loaded from — healthy
// run and fault run both.
func TestCompactionReplayIdentical(t *testing.T) {
	cases := []struct {
		name string
		opt  pperfmark.RunOptions
	}{
		{"healthy", pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7}},
	}
	if plan, err := faults.Parse("t=2s kill-node node1"); err != nil {
		t.Fatal(err)
	} else {
		cases = append(cases, struct {
			name string
			opt  pperfmark.RunOptions
		}{"faulted", pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Faults: plan}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, a := record(t, "small-messages", tc.opt, 0)
			orig := replayFingerprint(t, a)
			comp := replayFingerprint(t, compact(t, a))
			if orig != comp {
				i := 0
				for i < len(orig) && i < len(comp) && orig[i] == comp[i] {
					i++
				}
				t.Errorf("compacted replay diverges at byte %d: %q vs %q",
					i, tail(orig, i), tail(comp, i))
			}
		})
	}
}

func tail(s string, i int) string {
	lo, hi := i-60, i+60
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestStreamRecorderMatchesInMemory: a run streamed to disk in small
// chunks must replay to the fingerprint of the state the live run held in
// memory, whatever the chunk granularity.
func TestStreamRecorderMatchesInMemory(t *testing.T) {
	opt := pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7}
	live, streamed := record(t, "small-messages", opt, 32) // several chunk flushes over the run
	_, whole := record(t, "small-messages", opt, 0)
	if streamed.Header.NumEvents != whole.Header.NumEvents {
		t.Errorf("32-event chunks hold %d events, default chunks %d", streamed.Header.NumEvents, whole.Header.NumEvents)
	}
	if a, b := fingerprint(t, live), replayFingerprint(t, streamed); a != b {
		t.Error("streamed recording replays differently from the live run's in-memory state")
	}
}

// TestStoreDiffEndToEnd records a healthy and a degraded run of the same
// program into a store and checks the cross-run diagnosis: significant
// per-focus regressions, ranked, byte-deterministic across rebuilds.
func TestStoreDiffEndToEnd(t *testing.T) {
	st, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runInto := func(label, faultSpec string) perfdb.RunMeta {
		t.Helper()
		opt := pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7}
		if faultSpec != "" {
			plan, err := faults.Parse(faultSpec)
			if err != nil {
				t.Fatal(err)
			}
			opt.Faults = plan
		}
		rec, err := st.NewRecorder()
		if err != nil {
			t.Fatal(err)
		}
		opt.Record = rec
		res, err := pperfmark.Run("big-message", opt)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := st.Commit(rec, perfdb.AddMeta{Label: label, Verdict: res.PC.Export().String()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	healthy := runInto("healthy", "")
	degraded := runInto("degraded", "t=500ms degrade-link * bw=0.1")
	if healthy.Faults != "" || degraded.Faults == "" {
		t.Errorf("fault plans in index: healthy=%q degraded=%q", healthy.Faults, degraded.Faults)
	}
	if healthy.Verdict == "" || degraded.Verdict == "" {
		t.Error("consultant verdicts missing from the index")
	}

	diffOnce := func() string {
		base, err := st.OpenRun("healthy")
		if err != nil {
			t.Fatal(err)
		}
		neu, err := st.OpenRun("degraded")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := perfdb.Compare(base, neu, perfdb.CompareOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Regressions()) == 0 {
			t.Fatal("bandwidth-degraded run produced no significant regressions")
		}
		// Significant deltas rank above unchanged ones.
		sawUnchanged := false
		for _, d := range rep.Deltas {
			switch d.Verdict {
			case perfdb.VerdictRegression, perfdb.VerdictImprovement:
				if sawUnchanged {
					t.Error("significant delta ranked below an unchanged one")
				}
			case perfdb.VerdictUnchanged:
				sawUnchanged = true
			}
		}
		return rep.Render()
	}
	r1, r2 := diffOnce(), diffOnce()
	if r1 != r2 {
		t.Error("diff report not byte-deterministic across rebuilds")
	}
}

// TestStreamingOpenRunMatchesReferenceOnSuite: every suite program under
// every personality that runs it, one traced run and one self-healing fault
// run, each recorded into a store and then opened both ways — by the
// streaming fold and by the materialise-then-replay path it replaced (kept in
// reference_test.go). Views, and the diffs and trends over them, must agree.
func TestStreamingOpenRunMatchesReferenceOnSuite(t *testing.T) {
	st, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	both := func(prog string, opt pperfmark.RunOptions) (streamed, reference *perfdb.RunView) {
		t.Helper()
		rec, err := st.NewRecorder()
		if err != nil {
			t.Fatal(err)
		}
		opt.Record = rec
		res, err := pperfmark.Run(prog, opt)
		if err != nil {
			st.Discard(rec)
			t.Fatalf("%s: %v", prog, err)
		}
		if res.Unsupported != nil {
			st.Discard(rec)
			return nil, nil
		}
		m, _, err := st.Commit(rec, perfdb.AddMeta{})
		if err != nil {
			t.Fatal(err)
		}
		return perfdb.OpenBothWays(t, st.RunPath(m.ID), m)
	}
	// A quarter of each program's default iterations (less for the two that
	// take seconds): the comparison needs a recording of every program with
	// series in it, not a long one.
	short := func(prog string) pperfmark.Params {
		switch prog {
		case "small-messages":
			return pperfmark.Params{Iterations: 3000}
		case "wrong-way":
			return pperfmark.Params{Iterations: 15}
		}
		return pperfmark.Params{Iterations: pperfmark.Get(prog).Defaults.Iterations / 4}
	}
	for _, prog := range pperfmark.Names() {
		var streamed, reference []*perfdb.RunView
		for _, impl := range []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2, mpi.Reference} {
			if s, r := both(prog, pperfmark.RunOptions{Impl: impl, Seed: 7, Params: short(prog)}); s != nil {
				if len(s.Pairs()) < 3 {
					t.Errorf("%s under %v: the recording holds %d series, too few to compare anything", prog, impl, len(s.Pairs()))
				}
				streamed, reference = append(streamed, s), append(reference, r)
			}
		}
		if len(streamed) == 0 {
			t.Errorf("%s ran under no personality", prog)
		}
		perfdb.SameAnalytics(t, streamed, reference)
	}

	s, _ := both("random-barrier", pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Trace: &trace.Config{}})
	if tl := s.Timeline(); tl == nil || len(tl.Spans()) == 0 {
		t.Error("the traced recording opened without spans")
	}
	plan, err := faults.Parse("restarts=2; t=1s crash-daemon node1 restartable")
	if err != nil {
		t.Fatal(err)
	}
	s, _ = both("random-barrier", pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Faults: plan})
	if len(s.FaultLog()) == 0 || len(s.UnmeasuredGaps()) == 0 {
		t.Errorf("the self-healing recording opened with fault log %q and gaps %v", s.FaultLog(), s.UnmeasuredGaps())
	}
}
