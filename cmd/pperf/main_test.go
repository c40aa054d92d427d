package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pperf/internal/perfdb"
)

// TestCLIExitCodes drives the built binary over argument lists that must be
// refused before any simulation starts: exit 2 for a bad command line, exit
// 1 for a bad input file, each naming what was wrong on stderr.
func TestCLIExitCodes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pperf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
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
	pclFile := filepath.Join("..", "..", "testdata", "example.pcl")

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
		{"pcl with -record", []string{"-pcl", pclFile, "-record", filepath.Join(dir, "r.ppdb")}, 2, "-record cannot be combined with -pcl"},
		{"pcl with -faults", []string{"-faults", "t=1s kill-node node1", "-pcl", pclFile}, 2, "-faults cannot be combined with -pcl"},
		{"pcl with -replay", []string{"-replay", garbage, "-pcl", pclFile}, 2, "-replay cannot be combined with -pcl"},
		{"list with -prog", []string{"-list", "-prog", "small-messages"}, 2, "-prog cannot be combined with -list"},
		{"replay of a retired v1 archive", []string{"-replay", v1}, 1, "v1 PPARCH archive format retired"},
		{"db add of a retired v1 archive", []string{"db", "-store", store, "add", v1}, 1, "v1 PPARCH archive format retired"},
		{"replay of garbage", []string{"-replay", garbage}, 1, "not a pperf session archive"},
		{"db add with an ID-shaped label", []string{"db", "-store", store, "add", "-label", "r0001", empty}, 1, "shape of a run ID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
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
}
