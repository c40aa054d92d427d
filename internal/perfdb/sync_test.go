package perfdb

// Sync-plane tests: push/pull round trips must reproduce archives byte
// for byte — on a clean network, under seeded fault plans, and across
// interrupted transfers resumed at chunk granularity.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pperf/internal/faults"
	"pperf/internal/session"
	"pperf/internal/wire"
)

// testSyncConfig returns a client config tuned for fast tests: small
// chunks (so modest archives span many frames) and tight backoff.
func testSyncConfig() SyncConfig {
	cfg := DefaultSyncConfig()
	cfg.ChunkBytes = 512
	cfg.BaseBackoff = time.Millisecond
	cfg.MaxBackoff = 5 * time.Millisecond
	return cfg
}

// A chunk size outside [1, MaxSyncChunkBytes] is refused before dialing or
// sizing a buffer; zero still means the default.
func TestSyncChunkBytesIsRangeChecked(t *testing.T) {
	for _, n := range []int{-1, MaxSyncChunkBytes + 1} {
		cfg := testSyncConfig()
		cfg.ChunkBytes = n
		if _, err := dialSync("127.0.0.1:1", cfg); err == nil || !strings.Contains(err.Error(), "chunk size") {
			t.Errorf("ChunkBytes %d: dial error %v, want the range refused", n, err)
		}
	}
	_, srv := serveStore(t)
	src, m := storeWithRun(t, 30, 150, "")
	cfg := testSyncConfig()
	cfg.ChunkBytes = 0
	if _, err := Push(src, m.ID, srv.Addr(), cfg); err != nil {
		t.Errorf("ChunkBytes 0 (the default): %v", err)
	}
}

// storeWithRun creates a store holding one synthetic run.
func storeWithRun(t *testing.T, seed int64, events int, label string) (*Store, RunMeta) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.AddArchive(syntheticArchive(rand.New(rand.NewSource(seed)), events), AddMeta{Label: label})
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// serveStore exposes a fresh empty store on a free loopback port.
func serveStore(t *testing.T) (*Store, *SyncServer) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return st, srv
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSyncPushPullRoundTrip is the acceptance bar: push a run to a peer,
// pull it back into a third store, and both copies must be byte-identical
// to the original; identical re-transfers are no-ops.
func TestSyncPushPullRoundTrip(t *testing.T) {
	src, m := storeWithRun(t, 1, 400, "base")
	peer, srv := serveStore(t)

	res, err := Push(src, m.ID, srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := mustReadFile(t, src.RunPath(m.ID))
	if res.Deduped || res.RemoteID == "" {
		t.Fatalf("push result: %+v", res)
	}
	if res.Bytes != int64(len(want)) {
		t.Errorf("pushed %d bytes; archive is %d", res.Bytes, len(want))
	}
	if got := mustReadFile(t, peer.RunPath(res.RemoteID)); !bytes.Equal(want, got) {
		t.Fatal("pushed archive differs from the original")
	}
	// The peer carried over the descriptive metadata and the label.
	pm, err := peer.Get("base")
	if err != nil || pm.Program != "synthetic" || pm.Hash != m.Hash {
		t.Errorf("peer meta: %+v, %v", pm, err)
	}

	// Re-pushing identical content is a dedupe no-op.
	res2, err := Push(src, m.ID, srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Deduped || res2.RemoteID != res.RemoteID || res2.Bytes != 0 {
		t.Errorf("re-push: %+v; want dedupe no-op", res2)
	}

	// A third store pulls the run back down, byte-identically.
	sink, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pulls, _, err := Pull(sink, srv.Addr(), "", testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pulls) != 1 || pulls[0].Skipped || pulls[0].LocalID == "" {
		t.Fatalf("pull results: %+v", pulls)
	}
	if got := mustReadFile(t, sink.RunPath(pulls[0].LocalID)); !bytes.Equal(want, got) {
		t.Fatal("pulled archive differs from the original")
	}
	if sm, err := sink.Get("base"); err != nil || sm.ID != pulls[0].LocalID {
		t.Errorf("pulled label not resolvable: %+v, %v", sm, err)
	}

	// Pulling again skips: the content is already held.
	pulls2, _, err := Pull(sink, srv.Addr(), "base", testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pulls2) != 1 || !pulls2[0].Skipped {
		t.Errorf("re-pull: %+v; want skip", pulls2)
	}

	// Unknown remote runs are refused by name.
	if _, _, err := Pull(sink, srv.Addr(), "no-such-run", testSyncConfig()); err == nil {
		t.Error("pull of an unknown remote run succeeded")
	}
}

// TestSyncUnderFaultPlan shapes sync traffic with the same plan language
// the report transport uses: dropped frames and a degraded link must cost
// retries, never bytes.
func TestSyncUnderFaultPlan(t *testing.T) {
	plan, err := faults.Parse("seed=7; t=0s drop-transport client n=3 chan=sync; t=0s degrade-link * lat=1 bw=0.9")
	if err != nil {
		t.Fatal(err)
	}
	src, m := storeWithRun(t, 2, 500, "faulted")
	peer, srv := serveStore(t)

	cfg := testSyncConfig()
	cfg.Faults = plan
	cfg.Seed = plan.Seed
	cfg.MaxAttempts = 8
	res, err := Push(src, m.ID, srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retries < 3 || res.Stats.InjectedDrops < 3 {
		t.Errorf("fault plan not exercised: %+v", res.Stats)
	}
	want := mustReadFile(t, src.RunPath(m.ID))
	if got := mustReadFile(t, peer.RunPath(res.RemoteID)); !bytes.Equal(want, got) {
		t.Fatal("archive pushed under faults differs from the original")
	}

	// Pull under the same plan: also byte-identical.
	sink, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pulls, stats, err := Pull(sink, srv.Addr(), "faulted", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries < 3 {
		t.Errorf("pull under faults: %+v", *stats)
	}
	if got := mustReadFile(t, sink.RunPath(pulls[0].LocalID)); !bytes.Equal(want, got) {
		t.Fatal("archive pulled under faults differs from the original")
	}
}

// TestSyncPushResume cuts a push mid-transfer and checks the retry picks
// up from the server's partial instead of starting over.
func TestSyncPushResume(t *testing.T) {
	src, m := storeWithRun(t, 3, 2000, "")
	peer, srv := serveStore(t)
	size := int64(len(mustReadFile(t, src.RunPath(m.ID))))

	cfg := testSyncConfig()
	cfg.ChunkBytes = 256
	cfg.MaxAttempts = 2
	chunks := 0
	cfg.FaultHook = func(op string, seq uint64, attempt int) error {
		if op != "push-chunk" {
			return nil
		}
		chunks++
		if chunks > 3 {
			return errors.New("link cut")
		}
		return nil
	}
	if _, err := Push(src, m.ID, srv.Addr(), cfg); err == nil {
		t.Fatal("push survived a permanently cut link")
	}
	partial := peer.syncDir() + "/" + m.Hash + ".partial"
	fi, err := os.Stat(partial)
	if err != nil {
		t.Fatalf("no server-side partial after the cut: %v", err)
	}
	if fi.Size() <= 0 || fi.Size() >= size {
		t.Fatalf("partial holds %d of %d bytes", fi.Size(), size)
	}

	res, err := Push(src, m.ID, srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedAt != fi.Size() {
		t.Errorf("resumed at %d; partial held %d", res.ResumedAt, fi.Size())
	}
	if res.Bytes != size-res.ResumedAt {
		t.Errorf("retransferred %d bytes; want only the missing %d", res.Bytes, size-res.ResumedAt)
	}
	want := mustReadFile(t, src.RunPath(m.ID))
	if got := mustReadFile(t, peer.RunPath(res.RemoteID)); !bytes.Equal(want, got) {
		t.Fatal("resumed push produced a different archive")
	}
	if _, err := os.Stat(partial); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed transfer left its partial behind: %v", err)
	}
}

// TestSyncPushDiscardsCorruptPartial: a server-side partial that is complete
// in length but wrong in content fails verification once — and is discarded,
// so the retry restarts clean instead of resuming at offset == size, sending
// nothing and failing the same way until GC ages the partial out.
func TestSyncPushDiscardsCorruptPartial(t *testing.T) {
	src, m := storeWithRun(t, 7, 600, "")
	peer, srv := serveStore(t)
	want := mustReadFile(t, src.RunPath(m.ID))
	corrupt := append([]byte(nil), want...)
	corrupt[len(corrupt)/2] ^= 0x01
	partial := filepath.Join(peer.syncDir(), m.Hash+".partial")
	if err := os.MkdirAll(peer.syncDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(partial, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err == nil || !strings.Contains(err.Error(), "content verification") {
		t.Fatalf("push onto a corrupt partial: err = %v, want a content-verification error", err)
	}
	if _, err := os.Stat(partial); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt partial still on disk after failing verification (stat err = %v)", err)
	}
	res, err := Push(src, m.ID, srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatalf("retry after the corrupt partial was discarded: %v", err)
	}
	if res.ResumedAt != 0 || res.Bytes != int64(len(want)) {
		t.Errorf("retry resumed at %d and sent %d bytes; want a clean restart of %d", res.ResumedAt, res.Bytes, len(want))
	}
	if got := mustReadFile(t, peer.RunPath(res.RemoteID)); !bytes.Equal(want, got) {
		t.Fatal("archive pushed after a corrupt partial differs from the original")
	}
}

// TestSyncPushChunkRejectsNegativeOffset sends the raw frame a hostile or
// broken client could: a push-chunk whose offset is negative. The server
// must answer with an error and leave the partial as it was — it used to
// write the frame's tail at the wrong position.
func TestSyncPushChunkRejectsNegativeOffset(t *testing.T) {
	peer, srv := serveStore(t)
	c, err := dialSync(srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	hash := strings.Repeat("cd", 32)
	held := []byte("0123456789abcdef")
	if _, err := c.roundTrip(syncReq{Op: opPushBegin, Hash: hash, Size: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip(syncReq{Op: opPushChunk, Hash: hash, Data: held, CRC: wire.Checksum(held)}); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("X"), 32)
	_, err = c.roundTrip(syncReq{Op: opPushChunk, Hash: hash, Offset: -4, Data: data, CRC: wire.Checksum(data)})
	if err == nil || !strings.Contains(err.Error(), "negative offset") {
		t.Fatalf("negative-offset push-chunk: err = %v, want a negative-offset refusal", err)
	}
	if got := mustReadFile(t, filepath.Join(peer.syncDir(), hash+".partial")); !bytes.Equal(got, held) {
		t.Errorf("partial after the refused frame = %q, want it untouched (%q)", got, held)
	}
}

// TestSyncPushEndIgnoresForgedMeta sends the frames a hostile client could:
// an honest upload whose push-end names an ID-shaped label. The served index
// must describe the archive that arrived — read from its own header and
// bytes — and take only the label (refused here: it has the run-ID shape)
// and the verdict from the peer. A push-end once carried a whole index
// entry, and a forged one landed verbatim, so `db trend big-message` fitted
// a foreign run; the frame now has no field to forge the rest with.
func TestSyncPushEndIgnoresForgedMeta(t *testing.T) {
	src, m := storeWithRun(t, 8, 300, "")
	peer, srv := serveStore(t)
	data := mustReadFile(t, src.RunPath(m.ID))
	a, err := LoadAny(src.RunPath(m.ID))
	if err != nil {
		t.Fatal(err)
	}
	c, err := dialSync(srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if _, err := c.roundTrip(syncReq{Op: opPushBegin, Hash: m.Hash, Size: int64(len(data))}); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 4096 {
		chunk := data[off:min(off+4096, len(data))]
		if _, err := c.roundTrip(syncReq{Op: opPushChunk, Hash: m.Hash, Offset: int64(off), Data: chunk, CRC: wire.Checksum(chunk)}); err != nil {
			t.Fatal(err)
		}
	}
	end, err := c.roundTrip(syncReq{Op: opPushEnd, Hash: m.Hash, Label: "r0007", Verdict: "sync=true(0.9)"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(end.Warning, "shape of a run ID") {
		t.Errorf("warning %q; want the ID-shaped label refused", end.Warning)
	}
	want := RunMeta{
		ID: "r0001", Verdict: "sync=true(0.9)",
		Program: a.Header.Meta["program"], Impl: a.Header.Meta["impl"], Seed: a.Header.Meta["seed"],
		Events: len(a.Events), Bytes: int64(len(data)), Hash: m.Hash,
	}
	if got, err := peer.Get(end.ID); err != nil || got != want {
		t.Errorf("served index entry:\n got %+v (%v)\nwant %+v", got, err, want)
	}
}

// A server decodes every frame of a connection into one request, keeping its
// payload buffer, so a field a frame omits must read zero, not what the
// frame before carried. On one connection: a push-chunk that omits Data
// after one that carried it writes nothing (a stale payload and CRC would be
// appended again), a push-end after push-chunks that omits Label and Verdict
// stores the run unlabeled (not under the previous push-end's label and
// verdict), and a pull-chunk that omits Offset and Size reads the default
// chunk from the start (not from the pull before's offset at its size).
func TestSyncConnectionFramesStartClean(t *testing.T) {
	src, first := storeWithRun(t, 8, 300, "")
	m, err := src.AddArchive(syntheticArchive(rand.New(rand.NewSource(9)), 300), AddMeta{})
	if err != nil {
		t.Fatal(err)
	}
	peer, srv := serveStore(t)
	c, err := dialSync(srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	push := func(m RunMeta, label, verdict string, split int) *syncResp {
		t.Helper()
		data := mustReadFile(t, src.RunPath(m.ID))
		if _, err := c.roundTrip(syncReq{Op: opPushBegin, Hash: m.Hash, Size: int64(len(data))}); err != nil {
			t.Fatal(err)
		}
		head, rest := data[:split], data[split:]
		if _, err := c.roundTrip(syncReq{Op: opPushChunk, Hash: m.Hash, Data: head, CRC: wire.Checksum(head)}); err != nil {
			t.Fatal(err)
		}
		resp, err := c.roundTrip(syncReq{Op: opPushChunk, Hash: m.Hash, Offset: int64(split)})
		if err != nil {
			t.Fatal(err)
		}
		partial := mustReadFile(t, filepath.Join(peer.syncDir(), m.Hash+".partial"))
		if resp.Offset != int64(split) || !bytes.Equal(partial, head) {
			t.Fatalf("a push-chunk without Data after %d bytes: server holds %d bytes (offset %d), want %d", split, len(partial), resp.Offset, split)
		}
		if _, err := c.roundTrip(syncReq{Op: opPushChunk, Hash: m.Hash, Offset: int64(split), Data: rest, CRC: wire.Checksum(rest)}); err != nil {
			t.Fatal(err)
		}
		end, err := c.roundTrip(syncReq{Op: opPushEnd, Hash: m.Hash, Label: label, Verdict: verdict})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	push(first, "one", "sync=true(0.9)", 100)
	end := push(m, "", "", 200)
	if got, err := peer.Get(end.ID); err != nil || got.Label != "" || got.Verdict != "" || end.Warning != "" {
		t.Errorf("push-end without a label and verdict stored %+v (%v), warning %q; want no label and no verdict", got, err, end.Warning)
	}
	if _, err := c.roundTrip(syncReq{Op: opPullChunk, ID: end.ID, Offset: 64, Size: 16}); err != nil {
		t.Fatal(err)
	}
	pulled, err := c.roundTrip(syncReq{Op: opPullChunk, ID: end.ID})
	if err != nil {
		t.Fatal(err)
	}
	data := mustReadFile(t, src.RunPath(m.ID))
	if want := data[:min(len(data), DefaultSyncChunkBytes)]; pulled.Offset != 0 || !bytes.Equal(pulled.Data, want) {
		t.Errorf("a pull-chunk without Offset and Size read %d bytes at offset %d, want %d at 0", len(pulled.Data), pulled.Offset, len(want))
	}
}

// Each end refuses a peer whose protocol version differs, older or newer: a
// version-1 client's push-end carried its label and verdict in a field this
// server has not got, so taking its upload would lose them without a word.
func TestSyncRefusesOtherProtocolVersions(t *testing.T) {
	_, srv := serveStore(t)
	c, err := dialSync(srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for _, v := range []int{SyncProtoVersion - 1, SyncProtoVersion + 1} {
		want := fmt.Sprintf("server speaks sync protocol %d, client %d", SyncProtoVersion, v)
		if _, err := c.roundTrip(syncReq{Op: opHello, Proto: v}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("hello from a version-%d client: err = %v, want %q", v, err, want)
		}
	}

	for _, v := range []int{SyncProtoVersion - 1, SyncProtoVersion + 1} {
		peer, err := wire.Listen("127.0.0.1:0", func(c *wire.ServerConn) {
			var req syncReq
			for c.Read(&req) == nil {
				if c.Reply(&syncResp{OK: true, Proto: v}) != nil {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("server speaks protocol %d; this build speaks %d", v, SyncProtoVersion)
		if _, err := dialSync(peer.Addr(), testSyncConfig()); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("dialing a version-%d server: err = %v, want %q", v, err, want)
		}
		peer.Close()
	}
}

// TestSyncPushRefusesWhatIsNotAnArchive: a peer whose upload hashes to what it
// announced gets past content verification whatever the bytes are; the parse
// that follows is what keeps garbage out of the store. Plain noise and valid
// framing (good CRCs, counts that add up) around a packed blob that does not
// decode are both refused, and the partial is discarded — resuming it would
// fail the same way for ever.
func TestSyncPushRefusesWhatIsNotAnArchive(t *testing.T) {
	var good bytes.Buffer
	if err := WriteArchive(&good, syntheticArchive(rand.New(rand.NewSource(4)), 30)); err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(good.Bytes())
	batch := new(session.Packer).PackSamples(nil, randomBatch(rand.New(rand.NewSource(2)), 6))
	batch[len(batch)-1] |= 0x80 // the last varint never ends
	framed := bytes.Join([][]byte{
		good.Bytes()[:ends[0]], // magic and header chunk
		testFrame(chunkEvents, eventsPayload([]byte{flagSamples}, 1, [][]byte{batch}, nil)),
	}, nil)
	noise := make([]byte, 3000)
	rand.New(rand.NewSource(1)).Read(noise)

	for name, data := range map[string][]byte{"noise": noise, "corrupt blob in valid framing": framed} {
		t.Run(name, func(t *testing.T) {
			peer, srv := serveStore(t)
			c, err := dialSync(srv.Addr(), testSyncConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			sum := sha256.Sum256(data)
			hash := hex.EncodeToString(sum[:])
			if _, err := c.roundTrip(syncReq{Op: opPushBegin, Hash: hash, Size: int64(len(data))}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.roundTrip(syncReq{Op: opPushChunk, Hash: hash, Data: data, CRC: wire.Checksum(data)}); err != nil {
				t.Fatal(err)
			}
			_, err = c.roundTrip(syncReq{Op: opPushEnd, Hash: hash})
			if err == nil || !strings.Contains(err.Error(), "transfer is not a valid archive") {
				t.Fatalf("push-end: err = %v, want the upload refused as not a valid archive", err)
			}
			if _, err := os.Stat(filepath.Join(peer.syncDir(), hash+".partial")); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("the refused partial is still staged (stat err = %v)", err)
			}
			if runs := peer.Runs(); len(runs) != 0 {
				t.Errorf("the served store indexed %+v", runs)
			}
		})
	}
}

// TestSyncPullResume: the client-side mirror of push resume.
func TestSyncPullResume(t *testing.T) {
	src, m := storeWithRun(t, 4, 2000, "")
	_, srv := serveStore(t)
	if res, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err != nil || res.Deduped {
		t.Fatalf("seeding push: %+v, %v", res, err)
	}
	size := int64(len(mustReadFile(t, src.RunPath(m.ID))))

	sink, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSyncConfig()
	cfg.ChunkBytes = 256
	cfg.MaxAttempts = 2
	chunks := 0
	cfg.FaultHook = func(op string, seq uint64, attempt int) error {
		if op != "pull-chunk" {
			return nil
		}
		chunks++
		if chunks > 3 {
			return errors.New("link cut")
		}
		return nil
	}
	if _, _, err := Pull(sink, srv.Addr(), "", cfg); err == nil {
		t.Fatal("pull survived a permanently cut link")
	}
	partial := sink.syncDir() + "/" + m.Hash + ".partial"
	fi, err := os.Stat(partial)
	if err != nil {
		t.Fatalf("no client-side partial after the cut: %v", err)
	}
	if fi.Size() <= 0 || fi.Size() >= size {
		t.Fatalf("partial holds %d of %d bytes", fi.Size(), size)
	}

	pulls, _, err := Pull(sink, srv.Addr(), "", testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pulls[0].ResumedAt != fi.Size() {
		t.Errorf("resumed at %d; partial held %d", pulls[0].ResumedAt, fi.Size())
	}
	want := mustReadFile(t, src.RunPath(m.ID))
	if got := mustReadFile(t, sink.RunPath(pulls[0].LocalID)); !bytes.Equal(want, got) {
		t.Fatal("resumed pull produced a different archive")
	}
}

// TestSyncPullLabelCollision: a pulled run whose label is already taken
// locally lands unlabeled with a warning — never an error, never a
// clobbered local run.
func TestSyncPullLabelCollision(t *testing.T) {
	src, m := storeWithRun(t, 5, 300, "base")
	_, srv := serveStore(t)
	if _, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err != nil {
		t.Fatal(err)
	}
	// The sink already owns the label with different content.
	sink, local := storeWithRun(t, 6, 100, "base")
	pulls, _, err := Pull(sink, srv.Addr(), "", testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pulls) != 1 || pulls[0].Skipped {
		t.Fatalf("pull results: %+v", pulls)
	}
	if pulls[0].Warning == "" || !strings.Contains(pulls[0].Warning, "collides") {
		t.Errorf("warning %q; want a label-collision note", pulls[0].Warning)
	}
	got, err := sink.Get(pulls[0].LocalID)
	if err != nil || got.Label != "" {
		t.Errorf("ingested run: %+v, %v; want unlabeled", got, err)
	}
	if owner, err := sink.Get("base"); err != nil || owner.ID != local.ID {
		t.Errorf("local label owner changed: %+v, %v", owner, err)
	}
}

// TestSyncServerUploadLocksReaped is the regression test for the server's
// once-unbounded per-hash upload-lock map: after any amount of push churn —
// fresh hashes, dedupe re-pushes, and a transfer cut mid-flight — every
// upload lock must come free, and wire's LockTable reaps a freed key, so the
// table does not grow one mutex per hash forever.
func TestSyncServerUploadLocksReaped(t *testing.T) {
	_, srv := serveStore(t)
	var hashes []string
	for i := 0; i < 4; i++ {
		src, m := storeWithRun(t, int64(10+i), 150, fmt.Sprintf("churn-%d", i))
		hashes = append(hashes, m.Hash)
		if _, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err != nil {
			t.Fatal(err)
		}
		// Dedupe re-push of the same content exercises the lock again.
		if _, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// A push cut mid-transfer leaves a partial on disk — but no lock entry.
	src, m := storeWithRun(t, 20, 2000, "")
	hashes = append(hashes, m.Hash)
	cfg := testSyncConfig()
	cfg.ChunkBytes = 256
	cfg.MaxAttempts = 2
	chunks := 0
	cfg.FaultHook = func(op string, seq uint64, attempt int) error {
		if op == "push-chunk" {
			if chunks++; chunks > 3 {
				return errors.New("link cut")
			}
		}
		return nil
	}
	if _, err := Push(src, m.ID, srv.Addr(), cfg); err == nil {
		t.Fatal("push survived a permanently cut link")
	}
	// The server handler may still be draining its last frame; each lock
	// must come free once it quiesces.
	for _, h := range hashes {
		got := make(chan func(), 1)
		go func() { got <- srv.uploads.Acquire(h) }()
		select {
		case release := <-got:
			release()
		case <-time.After(2 * time.Second):
			t.Fatalf("upload lock on %.8s still held at steady state", h)
		}
	}
}

// TestSyncChunkReplayIdempotent drives the server's chunk handler
// directly: replayed frames (lost acks) and gapped frames (swept
// partials) are answered with the authoritative offset, never
// double-applied.
func TestSyncChunkReplayIdempotent(t *testing.T) {
	_, srv := serveStore(t)
	hash := strings.Repeat("ab", 32)
	if resp := srv.pushBegin(&syncReq{Hash: hash, Size: 64}); !resp.OK || resp.Offset != 0 {
		t.Fatalf("push-begin: %+v", resp)
	}
	payload := []byte("0123456789abcdef")
	req := &syncReq{Op: opPushChunk, Hash: hash, Offset: 0, Data: payload, CRC: wire.Checksum(payload)}
	if resp := srv.pushChunk(req); !resp.OK || resp.Offset != 16 {
		t.Fatalf("first chunk: %+v", resp)
	}
	// Exact replay: absorbed, authoritative offset returned.
	if resp := srv.pushChunk(req); !resp.OK || resp.Offset != 16 {
		t.Fatalf("replayed chunk: %+v", resp)
	}
	if srv.DuplicateFrames() != 1 {
		t.Errorf("duplicate frames: %d; want 1", srv.DuplicateFrames())
	}
	// A gap (client ahead of the server): rewind, don't corrupt.
	gap := &syncReq{Op: opPushChunk, Hash: hash, Offset: 32, Data: payload, CRC: wire.Checksum(payload)}
	if resp := srv.pushChunk(gap); !resp.OK || resp.Offset != 16 {
		t.Fatalf("gapped chunk: %+v", resp)
	}
	// Transit corruption is refused per frame.
	bad := &syncReq{Op: opPushChunk, Hash: hash, Offset: 16, Data: payload, CRC: req.CRC + 1}
	if resp := srv.pushChunk(bad); resp.OK || !strings.Contains(resp.Err, "CRC") {
		t.Fatalf("corrupt chunk accepted: %+v", resp)
	}
	// Bad content addresses never touch the filesystem.
	if resp := srv.pushBegin(&syncReq{Hash: "../../etc/passwd", Size: 1}); resp.OK {
		t.Fatal("path-traversal hash accepted")
	}
}

// TestSyncPullStallGuard: a peer that answers every pull-chunk with a wrong
// CRC, with an empty payload that never reaches EOF, or with an offset the
// client's partial cannot take (past its end, or negative) makes no progress.
// Pull must give up within its guard, discard the partial and return an
// error — not spin forever, and not write the payload where the peer says.
func TestSyncPullStallGuard(t *testing.T) {
	run := syncRun{ID: "r0001", Bytes: 4096, Hash: strings.Repeat("ab", 32)}
	payload := []byte("payload")
	for _, tc := range []struct {
		name   string
		chunk  syncResp
		skew   int64  // added to the requested offset in the answer
		hash   string // listed content address, when not run.Hash
		errStr string
	}{
		{"bad CRC", syncResp{Data: payload, CRC: wire.Checksum(payload) + 1}, 0, "", "stalled"},
		{"never advances", syncResp{CRC: wire.Checksum(nil)}, 0, "", "stalled"},
		{"offset past the partial", syncResp{Data: payload, CRC: wire.Checksum(payload)}, 1 << 20, "", "stalled"},
		{"negative offset", syncResp{Data: payload, CRC: wire.Checksum(payload)}, -4, "", "negative offset"},
		{"path-traversal hash", syncResp{Data: payload, CRC: wire.Checksum(payload), EOF: true}, 0, "../../escape", "content hash"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := run
			if tc.hash != "" {
				run.Hash = tc.hash
			}
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			partial := filepath.Join(st.syncDir(), run.Hash+".partial")
			var pulls, staged atomic.Int64
			srv, err := wire.Listen("127.0.0.1:0", func(c *wire.ServerConn) {
				for {
					var req syncReq
					if c.Read(&req) != nil {
						return
					}
					resp := syncResp{OK: true, Proto: SyncProtoVersion, Runs: []syncRun{run}}
					if req.Op == opPullChunk {
						pulls.Add(1)
						if fi, err := os.Stat(partial); err == nil {
							staged.Store(max(staged.Load(), fi.Size()))
						}
						resp = tc.chunk
						resp.OK, resp.Size, resp.Offset = true, run.Bytes, req.Offset+tc.skew
					}
					if c.Reply(&resp) != nil {
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			cfg := testSyncConfig()
			_, _, err = Pull(st, srv.Addr(), run.ID, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.errStr) {
				t.Fatalf("Pull from a no-progress peer: err = %v, want a %q error", err, tc.errStr)
			}
			if want := int64(4*(int(run.Bytes)/cfg.ChunkBytes+1) + 16); tc.errStr == "stalled" && pulls.Load() != want {
				t.Errorf("peer saw %d pull-chunk requests, want exactly the guard (%d)", pulls.Load(), want)
			}
			if staged.Load() != 0 {
				t.Errorf("the client staged %d bytes at an offset of the peer's choosing; no answer here extends an empty partial", staged.Load())
			}
			if _, err := os.Stat(partial); !os.IsNotExist(err) {
				t.Errorf("pull left a partial behind (stat err = %v)", err)
			}
		})
	}
}

// Every door into a store hashes what it admits, so an index entry without a
// content hash was edited by hand: push and pull refuse it, and neither store
// changes.
func TestSyncRefusesAnEntryWithoutAHash(t *testing.T) {
	src, m := storeWithRun(t, 1, 50, "base")
	var idx map[string]any
	if err := json.Unmarshal(mustReadFile(t, src.indexPath()), &idx); err != nil {
		t.Fatal(err)
	}
	delete(idx["runs"].([]any)[0].(map[string]any), "hash")
	data, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src.indexPath(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if src, err = Open(src.Dir()); err != nil {
		t.Fatal(err)
	}
	peer, peerSrv := serveStore(t)
	files := func() string {
		var b strings.Builder
		for _, dir := range []string{src.Dir(), peer.Dir()} {
			filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err == nil && !d.IsDir() && d.Name() != ".lock" {
					fmt.Fprintf(&b, "%s %x\n", path, sha256.Sum256(mustReadFile(t, path)))
				}
				return err
			})
		}
		return b.String()
	}
	before := files()
	if _, err := Push(src, m.ID, peerSrv.Addr(), testSyncConfig()); err == nil || !strings.Contains(err.Error(), "bad content hash") {
		t.Errorf("push of a run without a hash: %v", err)
	}
	srcSrv, err := Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srcSrv.Close()
	if _, _, err := Pull(peer, srcSrv.Addr(), "", testSyncConfig()); err == nil || !strings.Contains(err.Error(), "bad content hash") {
		t.Errorf("pull of a run without a hash: %v", err)
	}
	if after := files(); after != before {
		t.Errorf("the stores changed:\nbefore\n%safter\n%s", before, after)
	}
}

// A pull decodes every chunk's payload into the client's one buffer. The
// bound counts the whole process — client, the in-process server, the staged
// file's hash and verify — and gob reads each message into a fresh buffer of
// its own, about 1.1 bytes per pulled byte; the pull measured 1.63 bytes per
// byte here, and 2.69 when it decoded every payload into a new buffer.
func TestPullAllocatesLessThanItPulls(t *testing.T) {
	src, m := storeWithRun(t, 4, 3000, "")
	srv, err := Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := testSyncConfig()
	cfg.ChunkBytes = 8 << 10
	if chunks := m.Bytes / int64(cfg.ChunkBytes); chunks < 32 {
		t.Fatalf("the run is %d bytes, only %d chunks", m.Bytes, chunks)
	}
	var before, after runtime.MemStats
	for range 2 { // the first pull also compiles gob's codecs: the second is measured
		dst, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		res, _, err := Pull(dst, srv.Addr(), m.ID, cfg)
		runtime.ReadMemStats(&after)
		if err != nil || len(res) != 1 || res[0].Bytes != m.Bytes {
			t.Fatalf("pull: %+v, %v; want %d bytes", res, err, m.Bytes)
		}
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.Bytes); per > 2 {
		t.Errorf("pulling %d bytes in %d-byte chunks allocated %.2f bytes per byte; want at most 2",
			m.Bytes, cfg.ChunkBytes, per)
	}
}
