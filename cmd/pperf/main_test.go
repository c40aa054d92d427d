package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pperf/internal/perfdb"
)

// TestCLIExitCodes drives the built binary over argument lists that must be
// refused before any simulation starts — exit 2 for a bad command line, exit
// 1 for a bad input file — and over programs that deadlock at the given
// process count, which must end the run with exit 1 inside the deadline and
// leave no recording behind. Each names what was wrong on stderr.
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
	garbage := write("garbage.ppdb", "definitely not an archive")
	empty := filepath.Join(dir, "empty.ppdb") // a valid archive of an eventless run
	if rec, err := perfdb.NewStreamRecorder(empty); err != nil || rec.Close() != nil {
		t.Fatalf("recording %s failed", empty)
	}
	store := filepath.Join(dir, "store")
	stuckRec, stuckStore := filepath.Join(dir, "stuck.ppdb"), filepath.Join(dir, "stuck-store")
	const nothingPending = " process(es) waiting with nothing pending that could wake them: "
	pclFile := filepath.Join("..", "..", "testdata", "example.pcl")
	pclText, err := os.ReadFile(pclFile)
	if err != nil {
		t.Fatal(err)
	}
	zeroInterval := write("zero-interval.pcl", strings.Replace(string(pclText), `"PC_EvalIntervalMS" 250`, `"PC_EvalIntervalMS" 0`, 1))
	negativeThreshold := write("negative-threshold.pcl", strings.Replace(string(pclText), `"PC_CPUThreshold" 0.3`, `"PC_CPUThreshold" -5`, 1))
	ghostCounter := write("ghost-counter.pcl", strings.Replace(string(pclText), "example_barriers++;", "ghost++;", 1))
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
		{"list with -prog", []string{"-list", "-prog", "small-messages"}, 2, "-prog cannot be combined with -list"},
		{"pcl with a zero evaluation interval", []string{"-pcl", zeroInterval}, 1, `pperf: pcl:17: tunable "PC_EvalIntervalMS" 0: the evaluation interval must be positive`},
		{"pcl with a negative threshold", []string{"-pcl", negativeThreshold}, 1, `pperf: pcl:16: tunable "PC_CPUThreshold" -5: a threshold is a fraction of run time in (0, 1]`},
		{"pcl with an undeclared counter in an embedded metric", []string{"-pcl", ghostCounter}, 1, `pperf: mdl:26: metric example_barriers: unknown counter "ghost"`},
		{"pcl with braces in a comment and a string of its mdl block", []string{"-pcl", bracesInMDL}, 0, ""},
		{"replay of a retired v1 archive", []string{"-replay", v1}, 1, "v1 PPARCH archive format retired"},
		{"db add of a retired v1 archive", []string{"db", "-store", store, "add", v1}, 1, "v1 PPARCH archive format retired"},
		{"replay of garbage", []string{"-replay", garbage}, 1, "not a pperf session archive"},
		{"db add with an ID-shaped label", []string{"db", "-store", store, "add", "-label", "r0001", empty}, 1, "shape of a run ID"},
		{"deadlocked wrong-way, recording", []string{"-prog", "wrong-way", "-np", "3", "-iterations", "5", "-record", stuckRec}, 1,
			"sim: deadlock at 0.091s: 3" + nothingPending + "wrong-way{0} (since 0.076s, in MPI_Finalize); wrong-way{1} (since 0.091s, in MPI_Finalize); wrong-way{2} (since 0.000s, in MPI_Recv(tag=599, comm=1) on rank 2)"},
		{"deadlocked big-message, into a store", []string{"-prog", "big-message", "-np", "3", "-db", stuckStore}, 1,
			"sim: deadlock at 0.523s: 3" + nothingPending + "big-message{0} (since 0.523s, in MPI_Finalize); big-message{1} (since 0.523s, in MPI_Finalize); big-message{2} (since 0.000s, in MPI_Recv(tag=0, comm=1) on rank 2)"},
		{"deadlocked spawnsync", []string{"-prog", "spawnsync", "-np", "3"}, 1,
			"sim: deadlock at 7.754s: 3" + nothingPending + "spawnsync{0} (since 7.754s, in MPI_Finalize); spawnsync{1} (since 0.216s, in MPI_Recv(tag=2, comm=3) on rank 1); spawnsync{2} (since 0.216s, in MPI_Recv(tag=2, comm=3) on rank 2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, tc.args...)
			cmd.Stderr = &stderr
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
		})
	}

	// The deadlocked runs went out through the error path: recording
	// aborted, store reservation released.
	for _, f := range []string{stuckRec, stuckRec + ".tmp"} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s left behind by the deadlocked run (stat: %v)", f, err)
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

// buildPperf builds the command into dir and returns the binary's path.
func buildPperf(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "pperf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// The report of `pperf -pcl testdata/example.pcl` is pinned byte for byte
// (regenerate with `go run ./cmd/pperf -pcl testdata/example.pcl >
// testdata/example.pcl.stdout` when a change means to move it).
func TestPCLExampleOutputIsGolden(t *testing.T) {
	pcl, err := filepath.Abs(filepath.Join("..", "..", "testdata", "example.pcl"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "example.pcl.stdout", "-pcl", pcl)
}

// The self-report of a faulted, traced run is pinned byte for byte: the
// "Trace written to …" line with its shard and span-loss counts, and one
// wire-counter line per channel. It runs in an empty directory, so the trace
// path printed is the one given (regenerate there with the arguments below
// and `> testdata/transport-stats.stdout`).
func TestTransportStatsOutputIsGolden(t *testing.T) {
	checkGolden(t, "transport-stats.stdout", "-prog", "small-messages", "-seed", "7", "-iterations", "3000",
		"-trace", "t.json", "-transport-stats",
		"-faults", "t=5ms drop-transport node0 n=6 chan=bulk; t=20ms hang-daemon node1 for=100ms; t=10ms drop-transport node1 n=4")
}

// checkGolden runs pperf with args in an empty directory and compares its
// stdout with testdata/golden.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(buildPperf(t, dir), args...)
	cmd.Dir = dir
	got, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("pperf %q printed\n%s\nwant testdata/%s:\n%s", args, got, golden, want)
	}
}
