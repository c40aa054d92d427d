package perfdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pperf/internal/sim"
)

func TestStoreAddListRemoveGC(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := syntheticArchive(rng, 200)

	m1, err := st.AddArchive(a, AddMeta{Label: "baseline", Verdict: "sync=true(0.9)"})
	if err != nil {
		t.Fatal(err)
	}
	if m1.ID != "r0001" || m1.Program != "synthetic" || m1.Events != 200 || m1.Bytes == 0 {
		t.Errorf("first run meta: %+v", m1)
	}
	m2, err := st.AddArchive(a, AddMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != "r0002" {
		t.Errorf("second ID %q", m2.ID)
	}

	// Labels resolve like IDs; collisions are refused.
	if got, err := st.Get("baseline"); err != nil || got.ID != "r0001" {
		t.Errorf("Get(label) = %+v, %v", got, err)
	}
	if _, err := st.AddArchive(a, AddMeta{Label: "baseline"}); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := st.AddArchive(a, AddMeta{Label: "r0001"}); err == nil {
		t.Error("label shadowing an ID accepted")
	}

	// The index survives reopening.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if runs := st2.Runs(); len(runs) != 2 || runs[0].Verdict != "sync=true(0.9)" {
		t.Fatalf("reopened store: %+v", runs)
	}

	// Stored archives load and materialize.
	rv, err := st2.OpenRun("r0001")
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Pairs()) != 1 { // m1 enabled, m2's enable failed
		t.Errorf("pairs: %+v", rv.Pairs())
	}

	// Remove drops the entry and the file; GC sweeps strays.
	stray := filepath.Join(dir, "runs", "r0099.ppdb.tmp")
	if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st2.Remove("r0002"); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Get("r0002"); err == nil {
		t.Error("removed run still resolves")
	}
	removed, err := st2.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "r0099.ppdb.tmp" {
		t.Errorf("GC removed %v", removed)
	}
	if _, err := os.Stat(st2.RunPath("r0001")); err != nil {
		t.Errorf("GC touched a referenced archive: %v", err)
	}
}

func TestStoreRecorderCommit(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.NewRecorder()
	if err != nil {
		t.Fatal(err)
	}
	rec.SetHistogram(100, 50*sim.Millisecond)
	src := syntheticArchive(rand.New(rand.NewSource(4)), 300)
	replayEventsInto(rec, src.Events)
	rec.SetMeta("program", "streamed")
	m, warn, err := st.Commit(rec, AddMeta{Label: "live", Verdict: "cpu=false(0.1)"})
	if err != nil {
		t.Fatal(err)
	}
	if warn != "" {
		t.Errorf("unexpected commit warning: %q", warn)
	}
	if m.ID != "r0001" || m.Program != "streamed" || m.Events != 300 {
		t.Errorf("committed meta: %+v", m)
	}
	rv, err := st.OpenRun("live")
	if err != nil {
		t.Fatal(err)
	}
	if rv.Meta.Verdict != "cpu=false(0.1)" {
		t.Errorf("verdict: %q", rv.Meta.Verdict)
	}

	// A second recorder reserves the next ID even though the first was
	// committed in between.
	rec2, err := st.NewRecorder()
	if err != nil {
		t.Fatal(err)
	}
	rec2.SetHistogram(0, 0)
	m2, _, err := st.Commit(rec2, AddMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != "r0002" {
		t.Errorf("second recorder ID %q", m2.ID)
	}
}

// TestGCSparesLiveRecording is the regression test for GC deleting an
// in-flight `-db` recording's temp file: the recorder's reservation must
// pin the file for as long as it keeps being written.
func TestGCSparesLiveRecording(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.NewRecorder()
	if err != nil {
		t.Fatal(err)
	}
	src := syntheticArchive(rand.New(rand.NewSource(2)), 150)
	replayEventsInto(rec, src.Events)

	// A stray unrelated temp file proves GC is still sweeping while it
	// spares the live recording.
	stray := filepath.Join(dir, "runs", "r0099.ppdb.tmp")
	if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "r0099.ppdb.tmp" {
		t.Fatalf("GC during a live recording removed %v; want only the stray", removed)
	}
	if _, err := os.Stat(rec.Path() + ".tmp"); err != nil {
		t.Fatalf("GC deleted the live recording's temp file: %v", err)
	}
	m, warn, err := st.Commit(rec, AddMeta{Label: "live"})
	if err != nil {
		t.Fatalf("commit after GC: %v", err)
	}
	if warn != "" {
		t.Errorf("unexpected warning: %q", warn)
	}
	if a, err := LoadAny(st.RunPath(m.ID)); err != nil || a.Header.NumEvents != 150 {
		t.Fatalf("recording damaged: %v (archive %+v)", err, a)
	}
	if removed, err := st.GC(); err != nil || len(removed) != 0 {
		t.Errorf("GC after commit removed %v, err %v", removed, err)
	}
}

// TestGCReclaimsCrashedRecording: a reservation whose temp file has gone
// quiet past gcTmpAge is a crashed recording — GC sweeps the file and
// releases the reservation, but never reuses the ID.
func TestGCReclaimsCrashedRecording(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.NewRecorder()
	if err != nil {
		t.Fatal(err)
	}
	replayEventsInto(rec, syntheticArchive(rand.New(rand.NewSource(3)), 40).Events)
	// Simulate the recording process having crashed two hours ago.
	tmp := rec.Path() + ".tmp"
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	removed, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "r0001.ppdb.tmp" {
		t.Fatalf("GC removed %v; want the crashed recording's temp file", removed)
	}
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "reserved") {
		t.Errorf("stale reservation not released: %s", data)
	}
	// The crashed ID is spent, not recycled: the next recording gets r0002.
	rec2, err := st.NewRecorder()
	if err != nil {
		t.Fatal(err)
	}
	if id := recorderID(rec2); id != "r0002" {
		t.Errorf("post-GC recorder got ID %q; want r0002", id)
	}
	st.Discard(rec2)
}

// TestCommitLabelCollisionPreservesRun is the regression test for Commit
// aborting (and thereby deleting) a fully recorded run when its label
// collided: the run must land unlabeled with a warning instead.
func TestCommitLabelCollisionPreservesRun(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if _, err := st.AddArchive(syntheticArchive(rng, 50), AddMeta{Label: "baseline"}); err != nil {
		t.Fatal(err)
	}
	rec, err := st.NewRecorder()
	if err != nil {
		t.Fatal(err)
	}
	src := syntheticArchive(rng, 120)
	replayEventsInto(rec, src.Events)
	m, warn, err := st.Commit(rec, AddMeta{Label: "baseline"})
	if err != nil {
		t.Fatalf("label collision destroyed the commit: %v", err)
	}
	if warn == "" || !strings.Contains(warn, "unlabeled") {
		t.Errorf("warning %q; want a label-collision note", warn)
	}
	if m.ID != "r0002" || m.Label != "" {
		t.Errorf("committed meta: %+v; want r0002 unlabeled", m)
	}
	if a, err := LoadAny(st.RunPath("r0002")); err != nil || a.Header.NumEvents != 120 {
		t.Fatalf("recorded data lost to the label collision: %v", err)
	}
	// The original owner of the label is untouched.
	if got, err := st.Get("baseline"); err != nil || got.ID != "r0001" {
		t.Errorf("Get(baseline) = %+v, %v", got, err)
	}
}

// TestIDShapedLabelRefused is the regression test for a label of the run-ID
// shape shadowing the real run once the sequence reached it: labelled
// "r0002", the first run of a store used to answer Get("r0002") in place of
// the second (so `db rm r0002` deleted the wrong archive).
func TestIDShapedLabelRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := syntheticArchive(rand.New(rand.NewSource(6)), 30)
	// An add whose source the caller still holds is refused, nothing stored.
	if _, err := st.AddArchive(a, AddMeta{Label: "r0009"}); err == nil || !strings.Contains(err.Error(), "shape of a run ID") {
		t.Fatalf("AddArchive with an ID-shaped label: err = %v, want a refusal", err)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "runs")); len(st.Runs()) != 0 || len(entries) != 0 {
		t.Fatalf("refused add stored something: runs %+v, files %v", st.Runs(), entries)
	}
	// A recording is the only copy: it lands unlabeled with a warning.
	rec, err := st.NewRecorder()
	if err != nil {
		t.Fatal(err)
	}
	replayEventsInto(rec, a.Events)
	first, warn, err := st.Commit(rec, AddMeta{Label: "r0002"})
	if err != nil || first.ID != "r0001" || first.Label != "" || !strings.Contains(warn, "unlabeled") {
		t.Fatalf("Commit with an ID-shaped label: %+v, warning %q, err %v; want r0001 unlabeled with a warning", first, warn, err)
	}
	if _, err := st.AddArchive(a, AddMeta{}); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get("r0002"); err != nil || got.ID != "r0002" {
		t.Errorf("Get(r0002) = %+v, %v; want the run whose ID that is", got, err)
	}
}

// TestAdmissionCrashTable fails every step of admitting a run (temp create,
// archive write, rename into runs/, index save) under every entry point, both
// as an error the code gets to handle and as a crash — a panic at the
// boundary, so no cleanup runs, as when the process is killed there. Either
// way the store must reopen with every earlier run intact and no trace of
// the half-admitted one, GC must sweep the debris, and the next add must get
// an ID nothing else has — for AddArchive the very ID the failed add would
// have had (a failed add once burned it).
func TestAdmissionCrashTable(t *testing.T) {
	type crash struct{ step string }
	second := syntheticArchive(rand.New(rand.NewSource(8)), 60)
	entries := []struct {
		name   string
		nextID string // what the add after the failure must get
		admit  func(st *Store) error
	}{
		{"AddArchive", "r0002", func(st *Store) error {
			_, err := st.AddArchive(second, AddMeta{Label: "second"})
			return err
		}},
		{"AddFile", "r0002", func(st *Store) error {
			path, _ := writeChunked(t, second, 0)
			_, err := st.AddFile(path, AddMeta{Label: "second"})
			return err
		}},
		{"Commit", "r0003", func(st *Store) error { // the failed recording's reservation is spent
			rec, err := st.NewRecorder()
			if err != nil {
				return err
			}
			replayEventsInto(rec, second.Events)
			_, _, err = st.Commit(rec, AddMeta{Label: "second"})
			return err
		}},
		{"sync ingest", "r0002", func(st *Store) error {
			var buf bytes.Buffer
			if err := WriteArchive(&buf, second); err != nil {
				return err
			}
			sum := sha256.Sum256(buf.Bytes())
			p, err := st.partial(hex.EncodeToString(sum[:]))
			if err != nil {
				return err
			}
			half := int64(buf.Len() / 2)
			if _, _, err := p.write(0, buf.Bytes()[:half]); err != nil {
				return err
			}
			if _, _, err := p.write(half, buf.Bytes()[half:]); err != nil {
				return err
			}
			_, _, err = p.finish(AddMeta{Label: "second"})
			return err
		}},
	}
	for _, e := range entries {
		for _, step := range []string{"create", "write", "rename", "index"} {
			for _, mode := range []string{"error", "crash"} {
				t.Run(e.name+"/"+step+"/"+mode, func(t *testing.T) {
					dir := t.TempDir()
					st, err := Open(dir)
					if err != nil {
						t.Fatal(err)
					}
					first, err := st.AddArchive(syntheticArchive(rand.New(rand.NewSource(7)), 40), AddMeta{Label: "first"})
					if err != nil {
						t.Fatal(err)
					}
					want := mustReadFile(t, st.RunPath(first.ID))

					st.failAt = func(s string) error {
						if s != step {
							return nil
						}
						if mode == "crash" {
							panic(crash{s})
						}
						return errors.New("injected: " + s + " failed")
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								if _, ok := r.(crash); !ok {
									panic(r)
								}
								err = errors.New("crashed")
							}
						}()
						err = e.admit(st)
					}()
					if err == nil {
						t.Fatalf("step %q never failed the admission", step)
					}

					st, err = Open(dir)
					if err != nil {
						t.Fatalf("store does not reopen: %v", err)
					}
					if runs := st.Runs(); len(runs) != 1 || runs[0] != first {
						t.Fatalf("index after the failure: %+v; want only %+v", runs, first)
					}
					if _, err := LoadAny(st.RunPath(first.ID)); err != nil || !bytes.Equal(mustReadFile(t, st.RunPath(first.ID)), want) {
						t.Fatalf("earlier run damaged (load err %v)", err)
					}
					// Age what the failure left two hours into the past, so
					// GC takes a dead recording's temp file or a partial
					// download for a crashed one.
					old := time.Now().Add(-2 * time.Hour)
					if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
						if err == nil && !d.IsDir() {
							err = os.Chtimes(path, old, old)
						}
						return err
					}); err != nil {
						t.Fatal(err)
					}
					if _, err := st.GC(); err != nil {
						t.Fatal(err)
					}
					var left []string
					filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
						if err == nil && !d.IsDir() {
							rel, _ := filepath.Rel(dir, path)
							left = append(left, rel)
						}
						return nil
					})
					sort.Strings(left)
					if got := strings.Join(left, " "); got != ".lock index.json runs/r0001.ppdb" {
						t.Errorf("files after GC: %s; debris survived", got)
					}
					if strings.Contains(string(mustReadFile(t, filepath.Join(dir, "index.json"))), "reserved") {
						t.Error("GC left the dead recording's reservation in the index")
					}
					m, err := st.AddArchive(second, AddMeta{Label: "second"})
					if err != nil || m.ID != e.nextID {
						t.Fatalf("add after the failure: %+v, %v; want ID %s", m, err, e.nextID)
					}
					if a, err := LoadAny(st.RunPath(m.ID)); err != nil || len(a.Events) != len(second.Events) {
						t.Errorf("run added after the failure does not load: %v", err)
					}
				})
			}
		}
	}
}

// TestConcurrentStoreHandles drives several independent Store handles on
// one directory — the cross-process interleaving the advisory file lock
// exists for — and checks the index comes out complete and collision-free.
func TestConcurrentStoreHandles(t *testing.T) {
	dir := t.TempDir()
	const handles, perHandle = 4, 3
	errs := make(chan error, handles*perHandle)
	var wg sync.WaitGroup
	for i := 0; i < handles; i++ {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(st *Store, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < perHandle; j++ {
				if _, err := st.AddArchive(syntheticArchive(rng, 40), AddMeta{}); err != nil {
					errs <- err
				}
			}
		}(st, int64(10+i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := st.Runs()
	if len(runs) != handles*perHandle {
		t.Fatalf("stored %d runs; want %d", len(runs), handles*perHandle)
	}
	seen := map[string]bool{}
	for _, m := range runs {
		if seen[m.ID] {
			t.Fatalf("duplicate run ID %s", m.ID)
		}
		seen[m.ID] = true
		if _, err := LoadAny(st.RunPath(m.ID)); err != nil {
			t.Errorf("run %s unreadable: %v", m.ID, err)
		}
	}
}

func TestStoreRefusesNewerIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"version":99,"next_id":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("version-99 index opened by a version-1 reader")
	}
}

// TestAddFileStoresTheFilesBytes: `db add FILE` admits FILE by copy, so the
// run's content address is the file's own whichever writer made it — here an
// archive in 32-event chunks, a layout this build does not write by default,
// which re-encoding (what db add used to do) would turn into other bytes. A
// file without a trailer is stored as it is too: a crashed recording stays
// one, and so replays and folds as the file does.
func TestAddFileStoresTheFilesBytes(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := compatArchive()
	path, file := writeChunked(t, a, 32)
	var reencoded bytes.Buffer
	if err := WriteArchive(&reencoded, a); err != nil || bytes.Equal(reencoded.Bytes(), file) {
		t.Fatalf("the default writer makes the same bytes (err %v): the file proves nothing", err)
	}
	sum := sha256.Sum256(file)
	m, err := st.AddFile(path, AddMeta{Label: "as-recorded", Verdict: "sync=true(0.9)"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustReadFile(t, st.RunPath(m.ID)), file) || m.Hash != hex.EncodeToString(sum[:]) {
		t.Errorf("stored run %s (hash %.12s) is not the file that was added (SHA-256 %.12x)", m.ID, m.Hash, sum)
	}
	want := RunMeta{ID: "r0001", Label: "as-recorded", Verdict: "sync=true(0.9)", Events: len(a.Events), Bytes: int64(len(file)), Hash: m.Hash,
		Program: a.Header.Meta["program"], Impl: a.Header.Meta["impl"], Seed: a.Header.Meta["seed"], Procs: a.Header.Meta["procs"],
		Nodes: a.Header.Meta["nodes"], Faults: a.Header.Meta["faults"], Runtime: "1.250s"} // the header's nanoseconds, as a report prints them
	if m != want {
		t.Errorf("index entry:\n got %+v\nwant %+v", m, want)
	}

	// A refused label and a file that is no archive store nothing.
	for _, path := range []string{path, "store_test.go"} {
		if _, err := st.AddFile(path, AddMeta{Label: "as-recorded"}); err == nil {
			t.Errorf("AddFile(%s) under a label in use succeeded", path)
		}
	}
	if _, err := st.AddFile("store_test.go", AddMeta{}); err == nil || !strings.Contains(err.Error(), "not a pperf session archive") {
		t.Errorf("AddFile of a Go source file: err = %v", err)
	}
	if swept, err := st.GC(); err != nil || len(swept) != 0 || len(st.Runs()) != 1 {
		t.Errorf("after the refused adds: %d runs, GC swept %v (%v); want the one run and no debris", len(st.Runs()), swept, err)
	}

	// No trailer: stored as it is, marked truncated, and folded as the cut is.
	cut := filepath.Join(t.TempDir(), "cut.ppdb")
	ends := frameEnds(file)
	cutBytes := file[:ends[len(ends)-2]+11]
	if err := os.WriteFile(cut, cutBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	prefix, err := LoadAny(cut)
	if err != nil || !prefix.Truncated {
		t.Fatalf("the cut file loads as %+v, %v", prefix, err)
	}
	mt, err := st.AddFile(cut, AddMeta{})
	if err != nil {
		t.Fatal(err)
	}
	cutSum := sha256.Sum256(cutBytes)
	if !bytes.Equal(mustReadFile(t, st.RunPath(mt.ID)), cutBytes) || mt.Hash != hex.EncodeToString(cutSum[:]) {
		t.Errorf("stored cut %s (hash %.12s) is not the cut file (SHA-256 %.12x)", mt.ID, mt.Hash, cutSum)
	}
	if !mt.Truncated || mt.Events != len(prefix.Events) {
		t.Errorf("cut indexed as %+v, want truncated with %d events", mt, len(prefix.Events))
	}
	OpenBothWays(t, st.RunPath(mt.ID), mt)

	// AddArchive of the loaded prefix keeps it crashed as well.
	mr, err := st.AddArchive(prefix, AddMeta{})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := LoadAny(st.RunPath(mr.ID))
	if err != nil || !mr.Truncated || !stored.Truncated || !reflect.DeepEqual(stored.Events, prefix.Events) {
		t.Errorf("AddArchive of the prefix stored %+v, loading back truncated %v (%v); want the prefix's %d events, truncated",
			mr, stored != nil && stored.Truncated, err, len(prefix.Events))
	}
}
