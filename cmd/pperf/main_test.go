package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/sim"
)

// TestCLIExitCodes drives the built binary over argument lists that must be
// refused before any simulation starts — exit 2 for a bad command line, exit
// 1 for a bad input file, an unwritable output or a missing store — and over
// programs that deadlock at the given process count, which must end the run
// with exit 1 inside the deadline and leave no recording behind. Each names
// what was wrong on stderr, and a refused run prints nothing on stdout.
func TestCLIExitCodes(t *testing.T) {
	dir := t.TempDir()
	bin := buildPperf(t, dir)
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	v1 := write("old.pparch", "PPARCH\x1f\xff\x81\x03\x01\x01\x06Header")
	ppdba1 := filepath.Join("..", "..", "internal", "perfdb", "testdata", "traced_gob_shards.ppdb")
	// An archive of event-schema version 1, alone and stored as a store's
	// one run.
	schemaV1 := filepath.Join("..", "..", "internal", "perfdb", "testdata", "schema_v1_extra.ppdb")
	v1Store := filepath.Join(dir, "v1-store")
	garbage := write("garbage.ppdb", "definitely not an archive")
	empty := filepath.Join(dir, "empty.ppdb") // a valid archive of an eventless run
	if rec, err := perfdb.NewStreamRecorder(empty); err != nil || rec.Close() != nil {
		t.Fatalf("recording %s failed", empty)
	}
	store := filepath.Join(dir, "store")
	typo := filepath.Join(dir, "no-such-store")
	stuckRec, stuckStore := filepath.Join(dir, "stuck.ppdb"), filepath.Join(dir, "stuck-store")
	const nothingPending = " process(es) waiting with nothing pending that could wake them: "
	pclFile := filepath.Join("..", "..", "testdata", "example.pcl")
	pclText, err := os.ReadFile(pclFile)
	if err != nil {
		t.Fatal(err)
	}
	zeroInterval := write("zero-interval.pcl", strings.Replace(string(pclText), `"PC_EvalIntervalMS" 250`, `"PC_EvalIntervalMS" 0`, 1))
	nanosecondInterval := write("nanosecond-interval.pcl", strings.Replace(string(pclText), `"PC_EvalIntervalMS" 250`, `"PC_EvalIntervalMS" 0.000001`, 1))
	negativeThreshold := write("negative-threshold.pcl", strings.Replace(string(pclText), `"PC_CPUThreshold" 0.3`, `"PC_CPUThreshold" -5`, 1))
	ghostCounter := write("ghost-counter.pcl", strings.Replace(string(pclText), "example_barriers++;", "ghost++;", 1))
	// An archive recorded without -trace, for the replays that ask for one.
	untraced, refusedTrace := filepath.Join(dir, "untraced.ppdb"), filepath.Join(dir, "refused-trace.json")
	if out, err := exec.Command(bin, "-prog", "small-messages", "-iterations", "300", "-record", untraced).CombinedOutput(); err != nil {
		t.Fatalf("recording %s: %v\n%s", untraced, err, out)
	}
	// An archive of a run without the Consultant, which -replay prints and judges.
	noPC := filepath.Join(dir, "no-pc.ppdb")
	if rec, err := perfdb.NewStreamRecorder(noPC); err != nil {
		t.Fatal(err)
	} else if _, err := pperfmark.Run("small-messages", pperfmark.RunOptions{DisablePC: true, Params: pperfmark.Params{Iterations: 300}, Record: rec}); err != nil || rec.Close() != nil {
		t.Fatalf("recording %s: %v", noPC, err)
	}
	// An archive of a real run whose description says the Consultant
	// evaluated every nanosecond: a replay that trusted it would not end.
	nanosecondRecord := filepath.Join(dir, "nanosecond-interval.ppdb")
	if rec, err := perfdb.NewStreamRecorder(nanosecondRecord); err != nil {
		t.Fatal(err)
	} else if _, err := pperfmark.Run("random-barrier", pperfmark.RunOptions{Params: pperfmark.Params{Iterations: 40}, Record: nanosecondSink{rec}}); err != nil || rec.Close() != nil {
		t.Fatalf("recording %s: %v", nanosecondRecord, err)
	}
	if st, err := perfdb.Open(v1Store); err != nil {
		t.Fatal(err)
	} else if m, err := st.AddFile(empty, perfdb.AddMeta{}); err != nil {
		t.Fatal(err)
	} else if data, err := os.ReadFile(schemaV1); err != nil || os.WriteFile(st.RunPath(m.ID), data, 0o644) != nil {
		t.Fatalf("storing %s: %v", schemaV1, err)
	}
	bracesInMDL := write("braces-in-mdl.pcl", strings.Replace(string(pclText), `"PMPI_Barrier" };`, `"PMPI_Barrier", "no}such{fn" }; // a } ends no block`, 1))

	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"list", []string{"-list"}, 0, ""},
		{"missing -prog", nil, 2, "-prog is required"},
		{"what-if without replay", []string{"-prog", "small-messages", "-what-if-sync", "0.5"}, 2, "-what-if-sync cannot be combined with -prog"},
		{"what-if without any mode", []string{"-what-if-sync", "0.5"}, 2, "-prog is required"},
		{"negative what-if", []string{"-replay", garbage, "-what-if-sync", "-0.5"}, 2, "-what-if-sync -0.5"},
		{"what-if above 1", []string{"-replay", untraced, "-what-if-cpu", "5"}, 2, "pperf: -what-if-cpu 5: a threshold is a fraction of run time in (0, 1]"},
		{"explicit zero what-if", []string{"-replay", untraced, "-what-if-io", "0"}, 2, "pperf: -what-if-io 0: a threshold is a fraction of run time in (0, 1]"},
		{"critical path of an untraced replay", []string{"-replay", untraced, "-critical-path"}, 1, "pperf: no trace in this session"},
		{"trace of an untraced replay", []string{"-replay", untraced, "-trace", refusedTrace}, 1, "pperf: no trace in this session"},
		{"replay with run-shaping flags", []string{"-replay", garbage, "-seed", "99", "-impl", "mpich2", "-np", "64", "-faults", "t=1s kill-node node1", "-transport-stats", "-db-label", "x"}, 2, "-db-label cannot be combined with -replay"},
		{"replay with -seed", []string{"-replay", garbage, "-seed", "7"}, 2, "-seed cannot be combined with -replay"},
		{"replay with -record", []string{"-replay", garbage, "-record", filepath.Join(dir, "r.ppdb")}, 2, "-record cannot be combined with -replay"},
		{"replay with -prog", []string{"-prog", "small-messages", "-replay", garbage}, 2, "-prog cannot be combined with -replay"},
		{"db-label without -db", []string{"-prog", "big-message", "-db-label", "orphan"}, 2, "-db-label requires -db"},
		{"record with -db", []string{"-prog", "big-message", "-record", filepath.Join(dir, "r.ppdb"), "-db", store}, 2, "-record and -db are mutually exclusive"},
		{"bad trace format on the replay path", []string{"-replay", "a.ppdb", "-trace", filepath.Join(dir, "out"), "-trace-format", "xml"}, 2, `unknown -trace-format "xml"`},
		{"bad spawn method", []string{"-prog", "small-messages", "-spawn", "bogus"}, 2, `unknown -spawn "bogus"`},
		{"negative process count", []string{"-prog", "small-messages", "-np", "-1"}, 2, "-np -1: a size must not be negative"},
		{"negative iterations", []string{"-prog", "small-messages", "-iterations", "-5"}, 2, "-iterations -5: a size must not be negative"},
		{"negative time to waste", []string{"-prog", "small-messages", "-ttw", "-3"}, 2, "-ttw -3: a size must not be negative"},
		{"fault before the run starts", []string{"-prog", "random-barrier", "-faults", "t=-1s kill-node node1"}, 2, `bad t "-1s"`},
		{"NaN latency factor", []string{"-prog", "random-barrier", "-faults", "t=1s degrade-link * lat=NaN"}, 2, `bad lat "NaN": want a finite factor above 0`},
		{"negative bandwidth factor", []string{"-prog", "random-barrier", "-faults", "t=1s degrade-link * bw=-1"}, 2, `bad bw "-1": want a finite factor above 0`},
		{"latency factor past the bound", []string{"-prog", "random-barrier", "-faults", "t=1s degrade-link * lat=1e300"}, 2, "bad lat 1e300: above 1e+06; use sever-link"},
		{"pcl with -record", []string{"-pcl", pclFile, "-record", filepath.Join(dir, "r.ppdb")}, 2, "-record cannot be combined with -pcl"},
		{"pcl with -faults", []string{"-faults", "t=1s kill-node node1", "-pcl", pclFile}, 2, "-faults cannot be combined with -pcl"},
		{"pcl with -replay", []string{"-replay", garbage, "-pcl", pclFile}, 2, "-replay cannot be combined with -pcl"},
		{"stray operand before a flag", []string{"-prog", "small-messages", "-iterations", "200", "junk", "-impl", "mpich"}, 2, `pperf: -prog takes no operands, got "junk"`},
		{"list with operands", []string{"-list", "extra", "junk"}, 2, `pperf: -list takes no operands, got "extra"`},
		{"list with -prog", []string{"-list", "-prog", "small-messages"}, 2, "-prog cannot be combined with -list"},
		{"pcl with a zero evaluation interval", []string{"-pcl", zeroInterval}, 1, `pperf: pcl:17: tunable "PC_EvalIntervalMS" 0: the evaluation interval must be positive`},
		{"pcl with an evaluation interval below the sampling interval", []string{"-pcl", nanosecondInterval}, 1,
			`pperf: pcl:17: tunable "PC_EvalIntervalMS" 1e-06: the evaluation interval must be positive and at least the daemons' 200ms sampling interval`},
		{"pcl with a negative threshold", []string{"-pcl", negativeThreshold}, 1, `pperf: pcl:16: tunable "PC_CPUThreshold" -5: a threshold is a fraction of run time in (0, 1]`},
		{"pcl with an undeclared counter in an embedded metric", []string{"-pcl", ghostCounter}, 1, `pperf: mdl:26: metric example_barriers: unknown counter "ghost"`},
		{"pcl with braces in a comment and a string of its mdl block", []string{"-pcl", bracesInMDL}, 0, ""},
		{"replay of a retired v1 archive", []string{"-replay", v1}, 1, "v1 PPARCH archive format retired"},
		{"db add of a retired v1 archive", []string{"db", "-store", store, "add", v1}, 1, "v1 PPARCH archive format retired"},
		{"replay of a retired PPDBA1 archive", []string{"-replay", ppdba1}, 1, "pperf: perfdb: PPDBA1 archive format retired; re-record the run"},
		{"replay of garbage", []string{"-replay", garbage}, 1, "not a pperf session archive"},
		{"replay of a schema version 1 archive", []string{"-replay", schemaV1}, 1, "pperf: perfdb: archive event-schema version 1; this build reads version 2"},
		{"db add of a schema version 1 archive", []string{"db", "-store", store, "add", schemaV1}, 1, "perfdb: archive event-schema version 1; this build reads version 2"},
		{"db show of a schema version 1 archive", []string{"db", "-store", v1Store, "show", "r0001"}, 1, "perfdb: archive event-schema version 1; this build reads version 2"},
		{"replay of a run without the Consultant", []string{"-replay", noPC}, 0, ""},
		{"replay of a run description with a 1 ns evaluation interval", []string{"-replay", nanosecondRecord}, 1, "pperfmark: corrupt run description"},
		{"db add of a run description with a 1 ns evaluation interval", []string{"db", "-store", filepath.Join(dir, "nanosecond-store"), "add", nanosecondRecord}, 0,
			"pperf db: no verdict (replay failed: pperfmark: corrupt run description"},
		{"db add with an ID-shaped label", []string{"db", "-store", store, "add", "-label", "r0001", empty}, 1, "shape of a run ID"},
		{"unwritable trace path", []string{"-prog", "small-messages", "-iterations", "10", "-trace", filepath.Join(dir, "no-such-dir", "x.json")}, 1, "no such file or directory"},
		{"db list of a missing store", []string{"db", "-store", typo, "list"}, 1, "pperf db: no store at " + typo},
		{"db show of a missing store", []string{"db", "-store", typo, "show", "r0001"}, 1, "pperf db: no store at " + typo},
		{"db diff of a missing store", []string{"db", "-store", typo, "diff", "r0001", "r0002"}, 1, "pperf db: no store at " + typo},
		{"db trend of a missing store", []string{"db", "-store", typo, "trend", "big-message"}, 1, "pperf db: no store at " + typo},
		{"db rm of a missing store", []string{"db", "-store", typo, "rm", "r0001"}, 1, "pperf db: no store at " + typo},
		{"db gc of a missing store", []string{"db", "-store", typo, "gc"}, 1, "pperf db: no store at " + typo},
		{"db push from a missing store", []string{"db", "-store", typo, "push", "r0001", "127.0.0.1:1"}, 1, "pperf db: no store at " + typo},
		{"db push with a chunk below 1 byte", []string{"db", "-store", typo, "push", "-chunk-bytes", "-1", "r0001", "127.0.0.1:1"}, 2, "pperf db: -chunk-bytes -1: want 1 to 1073741824"},
		{"db pull with a chunk above 1 GiB", []string{"db", "-store", typo, "pull", "-chunk-bytes", "2147483648", "127.0.0.1:1", "--all"}, 2, "pperf db: -chunk-bytes 2147483648: want 1 to 1073741824"},
		{"db push with a bad sync plan", []string{"db", "-store", typo, "push", "-sync-faults", "garbage clause", "r0001", "127.0.0.1:1"}, 2, `pperf db: faults: clause "garbage clause": want t=DUR verb target`},
		{"db pull with a bad sync plan", []string{"db", "-store", typo, "pull", "-sync-faults", "garbage clause", "127.0.0.1:1", "--all"}, 2, `pperf db: faults: clause "garbage clause": want t=DUR verb target`},
		{"db pull without a run ID", []string{"db", "-store", typo, "pull", "127.0.0.1:1"}, 2, "pperf db: pull needs a run ID, or --all to fetch every remote run"},
		{"db flag before a verb that does not read it", []string{"db", "-store", store, "-all", "diff", "A", "B"}, 2, "pperf db diff: flag -all is not accepted by diff (see `pperf db help diff`)"},
		{"db flag after a verb that does not read it", []string{"db", "-store", store, "diff", "-all", "A", "B"}, 2, "pperf db diff: flag -all is not accepted by diff (see `pperf db help diff`)"},
		{"db with an unknown verb", []string{"db", "-store", store, "frobnicate"}, 2, `pperf db: unknown command "frobnicate"`},
		{"bare db", []string{"db"}, 2, "Usage: pperf db -store DIR <command> [flags] [operands]"},
		{"usage", []string{"-h"}, 0, "-what-if-sync"},
		{"deadlocked wrong-way, recording", []string{"-prog", "wrong-way", "-np", "3", "-iterations", "5", "-record", stuckRec}, 1,
			"sim: deadlock at 0.091s: 3" + nothingPending + "wrong-way{0} (since 0.076s, in MPI_Finalize); wrong-way{1} (since 0.091s, in MPI_Finalize); wrong-way{2} (since 0.000s, in MPI_Recv(tag=599, comm=1) on rank 2)"},
		{"deadlocked big-message, into a store", []string{"-prog", "big-message", "-np", "3", "-db", stuckStore}, 1,
			"sim: deadlock at 0.523s: 3" + nothingPending + "big-message{0} (since 0.523s, in MPI_Finalize); big-message{1} (since 0.523s, in MPI_Finalize); big-message{2} (since 0.000s, in MPI_Recv(tag=0, comm=1) on rank 2)"},
		{"deadlocked spawnsync", []string{"-prog", "spawnsync", "-np", "3"}, 1,
			"sim: deadlock at 7.754s: 3" + nothingPending + "spawnsync{0} (since 7.754s, in MPI_Finalize); spawnsync{1} (since 0.216s, in MPI_Recv(tag=2, comm=3) on rank 1); spawnsync{2} (since 0.216s, in MPI_Recv(tag=2, comm=3) on rank 2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q, want substring %q", stderr.String(), tc.stderr)
			}
			if strings.Contains(stderr.String(), "panic") || strings.Contains(stderr.String(), "gob") {
				t.Errorf("stderr leaks a panic or a decoder error: %s", stderr.String())
			}
			if code != 0 && stdout.Len() > 0 {
				t.Errorf("refused run printed on stdout:\n%s", stdout.String())
			}
		})
	}

	// The verbs refused on a missing store created none, pull and push
	// refused for their flags or operands included.
	if _, err := os.Stat(typo); !os.IsNotExist(err) {
		t.Errorf("%s exists after the missing-store runs (stat: %v)", typo, err)
	}

	// The deadlocked runs and the refused replay went out through the error
	// path: trace removed, recording aborted, store reservation released.
	for _, f := range []string{stuckRec, stuckRec + ".tmp", refusedTrace} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s left behind by a failed run (stat: %v)", f, err)
		}
	}
	st, err := perfdb.Open(stuckStore)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := os.ReadDir(filepath.Join(stuckStore, "runs"))
	if removed, err := st.GC(); len(st.Runs()) != 0 || len(files) != 0 || len(removed) != 0 || err != nil {
		t.Errorf("the deadlocked run's store holds %d runs and %d files, gc removed %v (%v); want nothing", len(st.Runs()), len(files), removed, err)
	}
}

// nanosecondSink records through its recorder, but the run record it stamps
// sets the evaluation interval to 1 ns (the pc-eval pair of
// internal/pperfmark/replay.go's stampRun).
type nanosecondSink struct{ *perfdb.StreamRecorder }

func (s nanosecondSink) SetMeta(k, v string) {
	if k == "pc-eval" {
		v = "1"
	}
	s.StreamRecorder.SetMeta(k, v)
}

// A crashed run's archive replays. Cut a recorded small-messages archive
// after each of its event chunks: every cut replays with exit 0 and the
// truncation note, its Consultant evaluating once per complete barrier — the
// replay clock stops at the last one's evaluation instant, k intervals in,
// which the report prints as the runtime — and `db add` stores it with a
// verdict, byte for byte, so its stored copy replays to the same report.
func TestTruncatedRecordingReplays(t *testing.T) {
	dir := t.TempDir()
	bin := buildPperf(t, dir)
	run := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return out.String(), errOut.String(), code
	}
	full, store := filepath.Join(dir, "full.ppdb"), filepath.Join(dir, "store")
	if _, stderr, code := run("-prog", "small-messages", "-seed", "7", "-record", full); code != 0 {
		t.Fatalf("recording: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	interval := sim.Time(pperfmark.ScaledPCConfig().EvalInterval)
	cuts := 0
	for pos := len("PPDBA2"); pos < len(data); {
		kind := data[pos]
		pos += 9 + int(binary.BigEndian.Uint32(data[pos+1:pos+5]))
		if kind != 'E' {
			continue
		}
		cut := filepath.Join(dir, fmt.Sprintf("cut%d.ppdb", cuts))
		cuts++
		if err := os.WriteFile(cut, data[:pos], 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := perfdb.LoadAny(cut)
		if err != nil || !a.Truncated {
			t.Fatalf("%s: truncated %v, err %v", cut, a != nil && a.Truncated, err)
		}
		_, barriers := a.Replayable()
		stdout, stderr, code := run("-replay", cut)
		want := fmt.Sprintf("virtual runtime %v,", sim.Time(barriers)*interval)
		if code != 0 || !strings.Contains(stderr, a.TruncationNote()) || !strings.Contains(stdout, want) {
			t.Errorf("replay of %s (%d events, %d barriers): exit %d, want 0 with %q on stderr and %q on stdout\nstderr: %s\nstdout: %.300s",
				cut, len(a.Events), barriers, code, a.TruncationNote(), want, stderr, stdout)
		}
		added, stderr, code := run("db", "-store", store, "add", cut)
		var id string
		var events, size int
		if _, err := fmt.Sscanf(added, "stored %s (%d events, %d bytes)\n", &id, &events, &size); code != 0 || err != nil || strings.Contains(stderr, "no verdict") {
			t.Errorf("db add of %s: exit %d (%v)\nstderr: %s\nstdout: %s", cut, code, err, stderr, added)
			continue
		}
		if size != pos || events != len(a.Events) {
			t.Errorf("db add of %s printed %q; want the cut's %d events and %d bytes", cut, added, len(a.Events), pos)
		}
		stored := filepath.Join(store, "runs", id+".ppdb")
		if got, err := os.ReadFile(stored); err != nil || !bytes.Equal(got, data[:pos]) {
			t.Errorf("%s: the stored copy %s is not the cut file (%v)", cut, stored, err)
		}
		if replayed, _, code := run("-replay", stored); code != 0 || replayed != stdout {
			t.Errorf("replay of the stored copy of %s: exit %d, stdout differs from the cut's:\n got %.300s\nwant %.300s", cut, code, replayed, stdout)
		}
	}
	if cuts < 2 {
		t.Fatalf("the recording has %d event chunks; want several cuts", cuts)
	}
	st, err := perfdb.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range st.Runs() {
		if !m.Truncated || m.Program != "small-messages" || m.Verdict == "" {
			t.Errorf("stored cut %+v: want a truncated small-messages run with a verdict", m)
		}
	}
}

// buildPperf builds the command into dir and returns the binary's path.
func buildPperf(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "pperf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// storeSetup records the run the store rows of TestCLIOutputIsGolden read.
var storeSetup = []string{"-prog", "allcount", "-seed", "7", "-db", "S"}

// TestCLIOutputIsGolden pins the stdout of one run per mode byte for byte
// against testdata/NAME.stdout (a NAME.stderr row pins stderr instead). Each
// runs in an empty directory, where a row that reads store S first runs
// storeSetup, so a path the output prints is the one given. A change that
// means to move one regenerates it there with the row's arguments (after
// storeSetup for a store row) and `> testdata/NAME.stdout`
// (`2> testdata/NAME.stderr`, then the binary's path replaced by pperf; the
// pcl row reads ../../testdata/example.pcl from cmd/pperf).
func TestCLIOutputIsGolden(t *testing.T) {
	pcl, err := filepath.Abs(filepath.Join("..", "..", "testdata", "example.pcl"))
	if err != nil {
		t.Fatal(err)
	}
	bin := buildPperf(t, t.TempDir())
	for _, tc := range []struct {
		name, golden string
		args         []string
	}{
		// The report of a PCL-configured run.
		{"pcl example", "example.pcl.stdout", []string{"-pcl", pcl}},
		// The self-report of a faulted, traced run: the "Trace written to …"
		// line with its shard and span-loss counts, and one wire-counter line
		// per channel.
		{"transport stats", "transport-stats.stdout", []string{"-prog", "small-messages", "-seed", "7", "-iterations", "3000",
			"-trace", "t.json", "-transport-stats",
			"-faults", "t=5ms drop-transport node0 n=6 chan=bulk; t=20ms hang-daemon node1 for=100ms; t=10ms drop-transport node1 n=4"}},
		{"program list", "list.stdout", []string{"-list"}},
		{"db usage", "db-help.stdout", []string{"db", "help"}},
		{"db diff usage", "db-help-diff.stdout", []string{"db", "help", "diff"}},
		{"db push usage", "db-help-push.stdout", []string{"db", "help", "push"}},
		{"db pull usage", "db-help-pull.stdout", []string{"db", "help", "pull"}},
		// What a store S holding one recorded run prints of it: its index
		// line, then its folded view.
		{"db list", "db-list.stdout", []string{"db", "-store", "S", "list"}},
		{"db show", "db-show.stdout", []string{"db", "-store", "S", "show", "r0001"}},
		// The run-mode usage `-h` prints on stderr, with the binary's path
		// written as pperf.
		{"usage", "usage.stderr", []string{"-h"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if slices.Contains(tc.args, "S") {
				setup := exec.Command(bin, storeSetup...)
				setup.Dir = dir
				if out, err := setup.CombinedOutput(); err != nil {
					t.Fatalf("pperf %q: %v\n%s", storeSetup, err, out)
				}
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Dir = dir
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatal(err)
			}
			got := stdout.Bytes()
			if strings.HasSuffix(tc.golden, ".stderr") {
				got = bytes.ReplaceAll(stderr.Bytes(), []byte(bin), []byte("pperf"))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("pperf %q printed\n%s\nwant testdata/%s:\n%s", tc.args, got, tc.golden, want)
			}
		})
	}
}

// TestREADMEListsEveryModeFlag checks README's "mode flag | flags it reads"
// table against the registry: each run mode has one row, and its first code
// span lists exactly the flags that mode reads ("none" for no flag), so a
// flag cannot land undocumented.
func TestREADMEListsEveryModeFlag(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(text), "| mode flag | flags it reads |\n|---|---|\n")
	if !ok {
		t.Fatal("README has no mode flag table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := map[string]string{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.SplitN(strings.Trim(row, "| "), " | ", 2)
		reads := ""
		if !strings.HasPrefix(cells[1], "none") {
			reads = strings.Split(cells[1], "`")[1]
		}
		for _, span := range strings.Split(cells[0], "`")[1:] {
			if mode, _, _ := strings.Cut(span, " "); strings.HasPrefix(mode, "-") {
				documented[mode[1:]] = reads
			}
		}
	}
	for _, c := range commands {
		if c.db {
			continue
		}
		var want []string
		for _, f := range c.flags {
			want = append(want, "-"+f)
		}
		got, ok := documented[c.name]
		if !ok {
			t.Errorf("README's mode flag table has no row for -%s", c.name)
		} else if got != strings.Join(want, " ") {
			t.Errorf("README says -%s reads %q; it reads %q", c.name, got, strings.Join(want, " "))
		}
		delete(documented, c.name)
	}
	for mode := range documented {
		t.Errorf("README's mode flag table lists -%s, which is not a mode", mode)
	}
}
