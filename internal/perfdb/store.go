package perfdb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pperf/internal/session"
	"pperf/internal/sim"
)

// A Store is a directory of compacted run archives plus a metadata index:
//
//	<dir>/index.json      the run index (this file is the store)
//	<dir>/runs/<id>.ppdb  one chunked archive per stored run
//	<dir>/sync/           partial transfers staged by push/pull peers
//	<dir>/.lock           advisory flock serializing mutations
//
// IDs are assigned sequentially (r0001, r0002, …) so a scripted sequence
// of adds is deterministic. The index is rewritten atomically (temp file
// + rename) on every mutation, and every mutation runs under the store's
// advisory file lock with a freshly reloaded index — concurrent processes
// (a live `-db` recording, the CLI, a `db serve` server) interleave
// safely. Files in runs/ not referenced by the index or by a live
// recording reservation are garbage a GC sweep removes.
type Store struct {
	dir string

	mu    sync.Mutex // serializes in-process access to index
	index storeIndex

	// failAt, set only by tests, is consulted at each step of admitting a
	// run ("create", "write", "rename", "index") and may fail or panic there.
	failAt func(step string) error
}

// indexVersion versions index.json; Open refuses a newer index rather
// than silently dropping fields.
const indexVersion = 1

// gcTmpAge is how long a reserved recording's temp file may go unmodified
// before GC declares the recording crashed and sweeps it. Stale partial
// sync downloads age out on the same clock.
const gcTmpAge = 15 * time.Minute

type storeIndex struct {
	Version int       `json:"version"`
	NextID  int       `json:"next_id"`
	Runs    []RunMeta `json:"runs"`
	// Reserved lists IDs handed to still-open streaming recorders. A
	// reservation pins the recorder's rNNNN.ppdb.tmp against GC and keeps
	// concurrent adds off the ID; Commit (or Discard) releases it.
	Reserved []string `json:"reserved,omitempty"`
}

// RunMeta is one stored run's index entry. The descriptive fields come
// from the archive header's Meta map (stamped by the recording harness);
// Verdict is the Consultant's exported summary, supplied by the caller at
// add time (the store itself never replays).
type RunMeta struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`

	Program string `json:"program,omitempty"`
	Impl    string `json:"impl,omitempty"`
	Seed    string `json:"seed,omitempty"`
	Procs   string `json:"procs,omitempty"`
	Nodes   string `json:"nodes,omitempty"`
	Faults  string `json:"faults,omitempty"`
	Runtime string `json:"runtime,omitempty"`

	Verdict string `json:"verdict,omitempty"`

	Events    int   `json:"events"`
	Bytes     int64 `json:"bytes"`
	Truncated bool  `json:"truncated,omitempty"`

	// Hash is the SHA-256 of the archive file — the run's content address.
	// The chunked encoding is byte-deterministic, so identical recordings
	// hash identically; sync dedupe keys on it.
	Hash string `json:"hash,omitempty"`
}

// Describe renders the one-line summary `db list` prints.
func (m RunMeta) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-18s %-9s seed=%-10s", m.ID, orDash(m.Program), orDash(m.Impl), orDash(m.Seed))
	fmt.Fprintf(&b, " runtime=%-9s events=%-7d", orDash(m.Runtime), m.Events)
	if m.Faults != "" {
		fmt.Fprintf(&b, " faults=%q", m.Faults)
	}
	if m.Label != "" {
		fmt.Fprintf(&b, " label=%q", m.Label)
	}
	if m.Truncated {
		b.WriteString(" [truncated]")
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Open opens (creating if needed) the store at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir}
	if err := st.loadIndex(); err != nil {
		return nil, err
	}
	return st, nil
}

// loadIndex (re)reads index.json from disk, resetting to the empty index
// when the file does not exist yet.
func (st *Store) loadIndex() error {
	st.index = storeIndex{Version: indexVersion, NextID: 1}
	data, err := os.ReadFile(st.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &st.index); err != nil {
		return fmt.Errorf("perfdb: corrupt store index %s: %v", st.indexPath(), err)
	}
	if st.index.Version > indexVersion {
		return fmt.Errorf("perfdb: store index version %d; this build reads version %d", st.index.Version, indexVersion)
	}
	if st.index.NextID < 1 {
		st.index.NextID = 1
	}
	return nil
}

// withLock runs one index mutation under the store's advisory file lock,
// reloading the index first (another process may have mutated it since we
// last looked). fn persists its own changes via saveIndex before the lock
// is released.
func (st *Store) withLock(fn func() error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	unlock, err := acquireLock(filepath.Join(st.dir, ".lock"))
	if err != nil {
		return fmt.Errorf("perfdb: lock store %s: %w", st.dir, err)
	}
	defer unlock()
	if err := st.loadIndex(); err != nil {
		return err
	}
	err = fn()
	if err != nil {
		st.loadIndex() // memory must not keep what the disk never got
	}
	return err
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) indexPath() string { return filepath.Join(st.dir, "index.json") }

// RunPath returns the archive path of a stored run.
func (st *Store) RunPath(id string) string {
	return filepath.Join(st.dir, "runs", id+".ppdb")
}

// syncDir returns the staging directory for partial transfers.
func (st *Store) syncDir() string { return filepath.Join(st.dir, "sync") }

// Runs returns the index entries in store order.
func (st *Store) Runs() []RunMeta {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]RunMeta(nil), st.index.Runs...)
}

// RunsFor returns the index entries of every stored run of the named
// program, in store order — the run sequence a trend query fits.
func (st *Store) RunsFor(program string) []RunMeta {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []RunMeta
	for _, m := range st.index.Runs {
		if m.Program == program {
			out = append(out, m)
		}
	}
	return out
}

// Get returns the index entry for id (an ID or a label).
func (st *Store) Get(id string) (RunMeta, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.getLocked(id)
}

func (st *Store) getLocked(id string) (RunMeta, error) {
	for _, m := range st.index.Runs {
		if m.ID == id || (m.Label != "" && m.Label == id) {
			return m, nil
		}
	}
	return RunMeta{}, fmt.Errorf("perfdb: no run %q in store %s (try `db list`)", id, st.dir)
}

// FindByHash returns the index entry whose archive content hashes to h.
func (st *Store) FindByHash(h string) (RunMeta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.findByHashLocked(h)
}

func (st *Store) findByHashLocked(h string) (RunMeta, bool) {
	if h == "" {
		return RunMeta{}, false
	}
	for _, m := range st.index.Runs {
		if m.Hash == h {
			return m, true
		}
	}
	return RunMeta{}, false
}

// saveIndex writes index.json atomically.
func (st *Store) saveIndex() error {
	data, err := json.MarshalIndent(&st.index, "", "  ")
	if err != nil {
		return err
	}
	tmp := st.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, st.indexPath())
}

// fileSHA256 returns the hex SHA-256 and the length of the file at path.
func fileSHA256(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// AddMeta carries the caller-supplied parts of an index entry.
type AddMeta struct {
	// Label is an optional human alias (Get resolves it like an ID).
	Label string
	// Verdict is the Consultant's exported summary for the run, or "".
	Verdict string
}

func (st *Store) at(step string) error {
	if st.failAt == nil {
		return nil
	}
	return st.failAt(step)
}

// takeID consumes the next sequential run ID. It is spent only once the
// index is saved: a failed add leaves no hole in the sequence.
func (st *Store) takeID() string {
	id := fmt.Sprintf("r%04d", st.index.NextID)
	st.index.NextID++
	return id
}

// An admission is one complete archive file at the store's door.
type admission struct {
	AddMeta
	// src is the file, already on the store's filesystem; id is the
	// reservation it was recorded under, or "" to take the next free ID.
	src, id string
	// hash and size are the file's content address and length when its
	// stager already read them (a synced transfer is verified against its
	// hash); "" makes admitLocked hash the file.
	hash string
	size int64
	// What the archive says about itself — the only descriptive input.
	header    session.Header
	events    int
	truncated bool
	// onlyCopy: nobody else holds the run, so a refused label stores it
	// unlabeled with a warning instead of refusing the run.
	onlyCopy bool
}

// admitLocked is the one door into the store: it settles the label, moves
// the file into runs/ under its ID, derives the index entry from the
// archive's header and bytes, appends it and persists the index. The caller
// holds the store lock. On error nothing is indexed; a file the failure
// stranded in runs/ is unreferenced, so GC sweeps it.
func (st *Store) admitLocked(in admission) (RunMeta, string, error) {
	label, warning := in.Label, ""
	if err := st.checkLabel(label); err != nil {
		if !in.onlyCopy {
			return RunMeta{}, "", err
		}
		label, warning = "", fmt.Sprintf("%v; run stored unlabeled", err)
	}
	var err error
	hash, size := in.hash, in.size
	if hash == "" {
		if hash, size, err = fileSHA256(in.src); err != nil {
			return RunMeta{}, "", err
		}
	}
	id := in.id
	if id == "" {
		id = st.takeID()
	}
	if err = st.at("rename"); err == nil {
		err = os.Rename(in.src, st.RunPath(id))
	}
	if err != nil {
		return RunMeta{}, "", err
	}
	h := in.header.Meta
	m := RunMeta{
		ID: id, Label: label, Verdict: in.Verdict,
		Program: h["program"], Impl: h["impl"], Seed: h["seed"], Procs: h["procs"],
		Nodes: h["nodes"], Faults: h["faults"], Runtime: h["runtime"],
		Events: in.events, Truncated: in.truncated, Bytes: size, Hash: hash,
	}
	// The header records the run time in nanoseconds; the index lists it as
	// the run's report prints it.
	if ns, err := strconv.ParseInt(m.Runtime, 10, 64); err == nil {
		m.Runtime = sim.Time(ns).String()
	}
	st.dropReservationLocked(id)
	st.index.Runs = append(st.index.Runs, m)
	if err = st.at("index"); err == nil {
		err = st.saveIndex()
	}
	if err != nil {
		return RunMeta{}, "", err
	}
	return m, warning, nil
}

// AddArchive stores a loaded session archive, encoding it in chunked
// compacted form through WriteArchive — a Truncated one stays trailer-less.
// The caller still holds the source, so a refused label refuses the add and
// nothing is stored.
func (st *Store) AddArchive(a *session.Archive, am AddMeta) (RunMeta, error) {
	return st.addStaged(func(tmp string) (admission, error) {
		return admission{AddMeta: am, src: tmp, header: a.Header, events: len(a.Events), truncated: a.Truncated},
			st.writeFile(tmp, func(w io.Writer) error { return WriteArchive(w, a) })
	})
}

// AddFile stores the archive file at path byte for byte — a crashed
// recording's too, still without its trailer — so the run's content address
// is the file's, whichever process wrote it: the file is copied into runs/
// and the copy verified in one streaming pass. As with AddArchive, a refused
// label refuses the add.
func (st *Store) AddFile(path string, am AddMeta) (RunMeta, error) {
	src, err := os.Open(path)
	if err != nil {
		return RunMeta{}, err
	}
	defer src.Close()
	return st.addStaged(func(tmp string) (admission, error) {
		if err := st.writeFile(tmp, func(w io.Writer) error { _, err := io.Copy(w, src); return err }); err != nil {
			return admission{}, err
		}
		return verifyStaged(tmp, am)
	})
}

// addStaged stages a file at runs/add.tmp under the store lock and admits it.
func (st *Store) addStaged(stage func(tmp string) (admission, error)) (RunMeta, error) {
	var m RunMeta
	err := st.withLock(func() error {
		tmp := filepath.Join(st.dir, "runs", "add.tmp")
		in, err := stage(tmp)
		if err == nil {
			m, _, err = st.admitLocked(in)
		}
		if err != nil {
			os.Remove(tmp)
		}
		return err
	})
	return m, err
}

// verifyStaged scans a staged file without keeping anything of it — one
// chunk of memory, whatever the file — and describes it for admitLocked.
func verifyStaged(src string, am AddMeta) (admission, error) {
	s, err := scanFile(src, nil)
	if err != nil {
		return admission{}, err
	}
	return admission{AddMeta: am, src: src, header: s.header, events: s.events, truncated: s.truncated}, nil
}

// writeFile creates the file at path and fills it through write.
func (st *Store) writeFile(path string, write func(io.Writer) error) error {
	if err := st.at("create"); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err = st.at("write"); err == nil {
		err = write(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewRecorder opens a streaming recorder that records straight into the
// store: the live run's event stream lands in chunked compacted form
// without an intermediate buffer-everything archive. The reserved ID is
// persisted in the index, so concurrent adds cannot collide with the
// recording in flight and GC knows its temp file is live. Commit the
// recorder when the run finishes (or Discard it on failure); a
// reservation whose temp file goes quiet past gcTmpAge is GC fodder.
func (st *Store) NewRecorder() (*StreamRecorder, error) {
	var rec *StreamRecorder
	err := st.withLock(func() error {
		id := st.takeID()
		st.index.Reserved = append(st.index.Reserved, id)
		err := st.saveIndex()
		if err == nil {
			err = st.at("create")
		}
		if err == nil {
			rec, err = NewStreamRecorder(st.RunPath(id))
		}
		return err
	})
	return rec, err
}

// recorderID recovers the reserved run ID from a recorder's destination
// path.
func recorderID(rec *StreamRecorder) string {
	return strings.TrimSuffix(filepath.Base(rec.Path()), ".ppdb")
}

// Commit finishes a recorder obtained from NewRecorder and admits its file
// under the reserved ID. The file is the only copy of the run, so a refused
// label commits it unlabeled and the returned warning explains why — a CLI
// typo must never destroy a fully recorded run.
func (st *Store) Commit(rec *StreamRecorder, am AddMeta) (m RunMeta, warning string, err error) {
	if err = st.at("write"); err == nil {
		err = rec.finish(false)
	}
	if err != nil {
		// The recording is lost; release its reservation so the dead ID
		// does not pin GC state forever.
		st.Discard(rec)
		return m, "", err
	}
	err = st.withLock(func() error {
		m, warning, err = st.admitLocked(admission{AddMeta: am, src: rec.tmp, id: recorderID(rec),
			header: rec.Header(), events: rec.EventCount(), onlyCopy: true})
		return err
	})
	return m, warning, err
}

// Discard aborts an uncommitted recorder and releases its reservation, so
// an abandoned run leaves nothing behind for GC to age out.
func (st *Store) Discard(rec *StreamRecorder) {
	rec.Abort()
	id := recorderID(rec)
	st.withLock(func() error {
		if st.dropReservationLocked(id) {
			return st.saveIndex()
		}
		return nil
	})
}

// dropReservationLocked removes id from the reservation list, reporting
// whether it was present.
func (st *Store) dropReservationLocked(id string) bool {
	for i, r := range st.index.Reserved {
		if r == id {
			st.index.Reserved = append(st.index.Reserved[:i], st.index.Reserved[i+1:]...)
			return true
		}
	}
	return false
}

// checkLabel keeps Get unambiguous: it refuses a label another run holds,
// and any label of the run-ID shape (r + digits) — free today or not, it
// would shadow that ID's run once the sequence reaches it.
func (st *Store) checkLabel(label string) error {
	if label == "" {
		return nil
	}
	if len(label) > 1 && label[0] == 'r' && strings.Trim(label[1:], "0123456789") == "" {
		return fmt.Errorf("perfdb: label %q has the shape of a run ID, which only the store assigns", label)
	}
	for _, m := range st.index.Runs {
		if m.Label == label {
			return fmt.Errorf("perfdb: label %q collides with stored run %s", label, m.ID)
		}
	}
	return nil
}

// OpenRun folds a stored run's event stream into its full DataSource view.
func (st *Store) OpenRun(id string) (*RunView, error) {
	m, err := st.Get(id)
	if err != nil {
		return nil, err
	}
	return openRun(st.RunPath(m.ID), m)
}

// Remove drops a run from the index and deletes its archive.
func (st *Store) Remove(id string) error {
	var path string
	err := st.withLock(func() error {
		m, err := st.getLocked(id)
		if err != nil {
			return err
		}
		path = st.RunPath(m.ID)
		kept := st.index.Runs[:0]
		for _, r := range st.index.Runs {
			if r.ID != m.ID {
				kept = append(kept, r)
			}
		}
		st.index.Runs = kept
		return st.saveIndex()
	})
	if err != nil {
		return err
	}
	return os.Remove(path)
}

// GC removes files under runs/ that neither an index entry nor a live
// recording reservation references — crashed recordings' temp files,
// archives of removed runs — plus stale partial transfers under sync/,
// and returns the removed names, sorted. A reservation counts as live
// while its rNNNN.ppdb.tmp keeps being modified; one whose temp file has
// gone quiet past gcTmpAge (or vanished) is a crashed recording, so the
// reservation is released and the file swept. An in-flight `-db`
// recording is therefore never collected: its reservation pins both the
// temp file and the final name.
func (st *Store) GC() ([]string, error) {
	var removed []string
	err := st.withLock(func() error {
		referenced := map[string]bool{}
		for _, m := range st.index.Runs {
			referenced[m.ID+".ppdb"] = true
		}
		var live []string
		for _, id := range st.index.Reserved {
			fi, err := os.Stat(st.RunPath(id) + ".tmp")
			if err == nil && time.Since(fi.ModTime()) < gcTmpAge {
				referenced[id+".ppdb"] = true
				referenced[id+".ppdb.tmp"] = true
				live = append(live, id)
			}
			// Otherwise the recording crashed (stale temp) or never
			// started (no temp): release the reservation and let the
			// sweep below take the file.
		}
		if len(live) != len(st.index.Reserved) {
			st.index.Reserved = live
			if err := st.saveIndex(); err != nil {
				return err
			}
		}
		entries, err := os.ReadDir(filepath.Join(st.dir, "runs"))
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || referenced[e.Name()] {
				continue
			}
			if err := os.Remove(filepath.Join(st.dir, "runs", e.Name())); err != nil {
				return err
			}
			removed = append(removed, e.Name())
		}
		// Partial sync transfers resume across invocations, so only
		// stale ones are garbage.
		if entries, err := os.ReadDir(st.syncDir()); err == nil {
			for _, e := range entries {
				fi, err := e.Info()
				if err != nil || e.IsDir() || time.Since(fi.ModTime()) < gcTmpAge {
					continue
				}
				if err := os.Remove(filepath.Join(st.syncDir(), e.Name())); err != nil {
					return err
				}
				removed = append(removed, "sync/"+e.Name())
			}
		}
		sort.Strings(removed)
		return nil
	})
	return removed, err
}
