package perfdb

// The PerfDB sync plane moves whole runs between stores over TCP, making
// a store the aggregation point for runs recorded on many machines:
//
//	pperf db serve  exposes a store at an address,
//	pperf db push   streams one local run to a served store,
//	pperf db pull   fetches one (or every) remote run into the local store.
//
// The wire discipline is the shared reliability plane in internal/wire —
// the same one under the daemon report transport: gob frames with
// per-connection sequence numbers, every data frame carrying a
// wire.Checksum of its payload (the same per-chunk integrity the PPDBA2
// file format uses), per-frame deadlines, and client-side retry with
// seeded jitter and a full redial on failure — a gob stream is stateful,
// so a failed connection is always replaced. Frames are offset-addressed
// and therefore idempotent: a frame replayed after a lost ack re-asserts
// bytes the peer already has, and the peer answers with its authoritative
// offset instead of double-applying — the sync plane's equivalent of the
// report transport's (daemon, channel) dedupe.
//
// Transfers are resumable at chunk granularity. An interrupted push leaves
// <dir>/sync/<hash>.partial on the server, an interrupted pull leaves the
// same on the client; the next attempt asks where the peer got to and
// continues from there. Runs are content-addressed by the SHA-256 of the
// archive file (the chunked encoding is byte-deterministic), so re-pushing
// or re-pulling an identical run is a no-op, and a completed transfer is
// verified hash-whole and parsed before it is admitted under a fresh local
// ID — its index entry read from the archive itself; a peer contributes the
// label and the verdict, nothing else.
//
// Sync traffic is fault-injectable from the same plan language as the
// report transport, through the wire plane's shared injection point:
// `drop-transport NAME n=K chan=sync` fails the next K frame sends, and
// `degrade-link` applies lat= as a per-frame delay and bw= as a seeded
// per-frame failure probability (see FAULTS.md).

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"pperf/internal/faults"
	"pperf/internal/wire"
)

// SyncProtoVersion versions the sync wire protocol; each end refuses a peer
// that speaks another version rather than misreading its frames.
const SyncProtoVersion = 2

// DefaultSyncChunkBytes is the default transfer granularity — the unit of
// resume and of per-frame CRC protection.
const DefaultSyncChunkBytes = 64 << 10

// MaxSyncChunkBytes bounds the transfer granularity at an archive frame's
// largest payload.
const MaxSyncChunkBytes = maxChunkPayload

// Frame ops.
const (
	opHello = iota + 1
	opList
	opPushBegin
	opPushChunk
	opPushEnd
	opPullChunk
)

var opNames = [...]string{opHello: "hello", opList: "list", opPushBegin: "push-begin",
	opPushChunk: "push-chunk", opPushEnd: "push-end", opPullChunk: "pull-chunk"}

func opName(op int) string {
	if op > 0 && op < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// syncReq is the client→server frame. Every frame carries a per-connection
// sequence number; chunk frames carry a CRC of their payload so transit
// corruption is caught per frame, exactly like the archive's chunk framing.
type syncReq struct {
	Op  int
	Seq uint64

	Proto   int    // opHello: client protocol version
	ID      string // opPullChunk: remote run ID or label
	Hash    string // content address of the run being transferred
	Size    int64  // opPushBegin: total size; opPullChunk: max chunk bytes
	Offset  int64  // chunk frames: byte offset of Data
	Data    []byte // opPushChunk payload
	CRC     uint32 // wire.Checksum of Data
	Label   string // opPushEnd: the run's label and verdict, all the receiver
	Verdict string // takes from the peer; the rest it reads from the archive
}

// syncResp is the server→client frame.
type syncResp struct {
	OK  bool
	Err string

	Proto   int       // opHello: server protocol version
	Runs    []syncRun // opList
	Have    bool      // opPushBegin/opPushEnd: content already stored
	Offset  int64     // authoritative byte count the server holds
	Size    int64     // opPullChunk: total archive size
	Data    []byte    // opPullChunk payload
	CRC     uint32    // wire.Checksum of Data
	EOF     bool      // opPullChunk: Data reaches the end of the archive
	ID      string    // opPushBegin/opPushEnd: run ID at the server
	Warning string    // opPushEnd: label collision note etc.
}

// Reset zeroes every field before a decode attempt (wire.Request.Resp) but
// keeps Data's buffer, emptied, for gob to decode the next payload into.
func (r *syncResp) Reset() { *r = syncResp{Data: r.Data[:0]} }

// syncRun is what a list frame tells of one stored run: what Pull reads.
type syncRun struct {
	ID, Label, Verdict, Hash string
	Bytes                    int64
}

// SyncConfig tunes the client side of Push/Pull.
type SyncConfig struct {
	// Config is the wire plane's retry behaviour (MsgTimeout, MaxAttempts,
	// BaseBackoff, MaxBackoff, Seed): equal seeds give identical retry
	// schedules. Seed also drives the degrade-link failure draw when no
	// plan seed overrides it.
	wire.Config
	// ChunkBytes is the transfer granularity, 1 to MaxSyncChunkBytes (0 =
	// DefaultSyncChunkBytes).
	ChunkBytes int
	// Faults optionally shapes sync traffic from a fault plan:
	// `drop-transport NAME n=K chan=sync` fails the next K frame sends,
	// `degrade-link ... lat=L` sleeps L milliseconds before each frame, and
	// `degrade-link ... bw=B` fails each frame with seeded probability 1-B.
	// The plan's seed drives both RNG streams, so a faulted sync is
	// exactly reproducible.
	Faults *faults.Plan
	// FaultHook, when set, is consulted before every attempt; a non-nil
	// return fails that attempt. Tests use it to cut a transfer at an
	// exact frame.
	FaultHook func(op string, seq uint64, attempt int) error
}

// DefaultSyncConfig returns production-shaped sync behaviour.
func DefaultSyncConfig() SyncConfig {
	return SyncConfig{Config: wire.DefaultConfig(), ChunkBytes: DefaultSyncChunkBytes}
}

// syncClient is one retrying, reconnecting frame channel to a sync server:
// a wire.Conn whose injection point the configured fault plan arms.
type syncClient struct {
	cfg  SyncConfig
	conn *wire.Conn
	// data is the payload buffer every response decodes into, so a pull
	// allocates no buffer per chunk. Only the buffer is shared: each round
	// trip answers with a response of its own.
	data []byte
}

// dialSync connects and handshakes protocol versions. The sync channel
// salts its jitter seed (wire.SaltSync) so its schedule is independent of
// the report transport's streams; a fault plan's seed overrides the
// configured one so a faulted sync is exactly reproducible.
func dialSync(addr string, cfg SyncConfig) (*syncClient, error) {
	switch {
	case cfg.ChunkBytes == 0:
		cfg.ChunkBytes = DefaultSyncChunkBytes
	case cfg.ChunkBytes < 0 || cfg.ChunkBytes > MaxSyncChunkBytes:
		return nil, fmt.Errorf("perfdb sync: chunk size %d outside [1, %d]", cfg.ChunkBytes, MaxSyncChunkBytes)
	}
	if cfg.MsgTimeout <= 0 {
		cfg.MsgTimeout = 2 * time.Second
	}
	if cfg.Faults != nil {
		cfg.Seed = cfg.Faults.Seed
	}
	conn, err := wire.Dial(addr, cfg.Config, cfg.Seed^wire.SaltSync)
	if err != nil {
		return nil, fmt.Errorf("perfdb sync: dial %s: %w", addr, err)
	}
	inj := conn.Injection()
	inj.Chan = wire.ChanSync
	inj.SeedBW(cfg.Seed ^ wire.SaltSync ^ wire.SaltBW)
	armSyncFaults(inj, cfg.Faults)
	c := &syncClient{cfg: cfg, conn: conn}
	resp, err := c.roundTrip(syncReq{Op: opHello, Proto: SyncProtoVersion})
	if err != nil {
		c.close()
		return nil, err
	}
	if resp.Proto != SyncProtoVersion {
		c.close()
		return nil, fmt.Errorf("perfdb sync: server speaks protocol %d; this build speaks %d", resp.Proto, SyncProtoVersion)
	}
	return c, nil
}

// armSyncFaults translates a fault plan into the sync channel's injection
// state.
func armSyncFaults(inj *wire.Injection, p *faults.Plan) {
	if p == nil {
		return
	}
	for _, f := range p.Faults {
		switch f.Kind {
		case faults.DropTransport:
			if f.Chan == wire.ChanSync {
				inj.AddDrops(f.N)
			}
		case faults.DegradeLink:
			inj.Degrade(time.Duration(f.Lat*float64(time.Millisecond)), f.BW)
		}
	}
}

func (c *syncClient) close() { c.conn.Close() }

// stats snapshots the client's wire counters.
func (c *syncClient) stats() wire.Stats { return c.conn.Stats() }

// roundTrip sends one frame and waits for its response through the wire
// plane's retrying Exchange. A response that arrives with OK=false is a
// protocol-level refusal, not a transport fault, and is returned as a
// terminal error. The response's Data is the client's one payload buffer:
// it is valid until the next round trip.
func (c *syncClient) roundTrip(req syncReq) (*syncResp, error) {
	resp := syncResp{Data: c.data[:0]}
	r := wire.Request{
		Req:   &req,
		Stamp: func(seq uint64) { req.Seq = seq },
		Resp:  &resp,
		Label: "perfdb sync: " + opName(req.Op),
	}
	if hook := c.cfg.FaultHook; hook != nil {
		r.Fault = func(attempt int) error { return hook(opName(req.Op), req.Seq, attempt) }
	}
	err := c.conn.Exchange(r)
	c.data = resp.Data // the buffer, grown if gob grew it
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New("perfdb sync: " + resp.Err)
	}
	return &resp, nil
}

// PushResult describes one completed push.
type PushResult struct {
	RunID     string // local run pushed
	RemoteID  string // the run's ID at the peer
	Deduped   bool   // the peer already had identical content
	ResumedAt int64  // byte offset the transfer resumed from (0 = fresh)
	Bytes     int64  // payload bytes actually transferred this invocation
	Warning   string // peer-side note (label collision, dedupe)
	Stats     wire.Stats
}

// Push streams one stored run (ID or label) to the store served at addr.
func Push(st *Store, runID, addr string, cfg SyncConfig) (*PushResult, error) {
	m, err := st.Get(runID)
	if err != nil {
		return nil, err
	}
	path := st.RunPath(m.ID)
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	c, err := dialSync(addr, cfg)
	if err != nil {
		return nil, err
	}
	defer c.close()
	res := &PushResult{RunID: m.ID}
	begin, err := c.roundTrip(syncReq{Op: opPushBegin, Hash: m.Hash, Size: size})
	if err != nil {
		res.Stats = c.stats()
		return res, err
	}
	if begin.Have {
		res.Deduped, res.RemoteID, res.Warning, res.Stats = true, begin.ID, begin.Warning, c.stats()
		return res, nil
	}
	res.ResumedAt = begin.Offset
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	offset := begin.Offset
	buf := make([]byte, c.cfg.ChunkBytes)
	// The server's response carries its authoritative byte count; the
	// loop converges even across replays and reconnect rewinds. The guard
	// bounds pathological no-progress exchanges.
	for guard := 4*(int(size)/c.cfg.ChunkBytes+1) + 16; offset < size; guard-- {
		if guard <= 0 {
			res.Stats = c.stats()
			return res, fmt.Errorf("perfdb sync: push of %s stalled at offset %d/%d", m.ID, offset, size)
		}
		n := int64(len(buf))
		if size-offset < n {
			n = size - offset
		}
		if _, err := f.ReadAt(buf[:n], offset); err != nil {
			res.Stats = c.stats()
			return res, err
		}
		resp, err := c.roundTrip(syncReq{
			Op: opPushChunk, Hash: m.Hash, Offset: offset,
			Data: buf[:n], CRC: wire.Checksum(buf[:n]),
		})
		if err != nil {
			res.Stats = c.stats()
			return res, err
		}
		if resp.Offset > offset {
			res.Bytes += resp.Offset - offset
		}
		offset = resp.Offset
	}
	end, err := c.roundTrip(syncReq{Op: opPushEnd, Hash: m.Hash, Label: m.Label, Verdict: m.Verdict})
	if err != nil {
		res.Stats = c.stats()
		return res, err
	}
	res.RemoteID, res.Warning, res.Deduped = end.ID, end.Warning, end.Have
	res.Stats = c.stats()
	return res, nil
}

// PullResult describes one run's pull outcome.
type PullResult struct {
	RemoteID  string
	LocalID   string
	Label     string
	Skipped   bool  // identical content was already in the local store
	ResumedAt int64 // byte offset the transfer resumed from
	Bytes     int64 // payload bytes actually transferred this invocation
	Warning   string
}

// Pull fetches runs from the store served at addr into st: one run (remote
// ID or label) when runID is non-empty, otherwise every remote run whose
// content the local store doesn't already hold. Each transferred archive
// is CRC-checked per chunk in transit, verified whole against its content
// hash, parsed for structural validity, and only then ingested under a
// fresh local ID.
func Pull(st *Store, addr, runID string, cfg SyncConfig) ([]PullResult, *wire.Stats, error) {
	c, err := dialSync(addr, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	fail := func(results []PullResult, err error) ([]PullResult, *wire.Stats, error) {
		s := c.stats()
		return results, &s, err
	}
	list, err := c.roundTrip(syncReq{Op: opList})
	if err != nil {
		return fail(nil, err)
	}
	var want []syncRun
	if runID == "" {
		want = list.Runs
	} else {
		for _, m := range list.Runs {
			if m.ID == runID || (m.Label != "" && m.Label == runID) {
				want = append(want, m)
				break
			}
		}
		if len(want) == 0 {
			return fail(nil, fmt.Errorf("perfdb sync: no run %q at %s", runID, addr))
		}
	}
	var results []PullResult
	for _, m := range want {
		r, err := pullOne(st, c, m)
		results = append(results, r)
		if err != nil {
			return fail(results, err)
		}
	}
	return fail(results, nil)
}

// pullOne transfers one remote run into the local store.
func pullOne(st *Store, c *syncClient, m syncRun) (PullResult, error) {
	res := PullResult{RemoteID: m.ID, Label: m.Label}
	if existing, ok := st.FindByHash(m.Hash); ok {
		res.Skipped, res.LocalID = true, existing.ID
		return res, nil
	}
	p, err := st.partial(m.Hash)
	if err != nil {
		return res, fmt.Errorf("perfdb sync: remote run %s: %w", m.ID, err)
	}
	offset := p.size()
	res.ResumedAt = offset
	// As in Push, the guard (sized from the peer's advertised m.Bytes) bounds
	// no-progress exchanges — a CRC that fails every time, offsets the partial
	// cannot take — so a corrupt or hostile server cannot hang us.
	done := false
	for guard := 4*(int(m.Bytes)/c.cfg.ChunkBytes+1) + 16; !done; guard-- {
		if guard <= 0 {
			p.discard()
			return res, fmt.Errorf("perfdb sync: pull of %s stalled at offset %d/%d; partial discarded", m.ID, offset, m.Bytes)
		}
		resp, err := c.roundTrip(syncReq{
			Op: opPullChunk, ID: m.ID, Hash: m.Hash,
			Offset: offset, Size: int64(c.cfg.ChunkBytes),
		})
		if err != nil {
			return res, err
		}
		if wire.Checksum(resp.Data) != resp.CRC {
			// Payload corrupted in transit: re-request the same chunk.
			continue
		}
		var applied int
		if offset, applied, err = p.write(resp.Offset, resp.Data); err != nil {
			return res, fmt.Errorf("perfdb sync: pull of %s: %w", m.ID, err)
		}
		res.Bytes += int64(applied)
		done = resp.EOF
	}
	lm, warn, err := p.finish(AddMeta{Label: m.Label, Verdict: m.Verdict})
	if err != nil {
		return res, fmt.Errorf("perfdb sync: pull of %s: %w", m.ID, err)
	}
	res.LocalID, res.Label, res.Warning = lm.ID, lm.Label, warn
	return res, nil
}

// A partial is one content-addressed transfer staged at
// <store>/sync/<hash>.partial — the receive side of both directions: the
// server stages a push in it, the client a pull.
type partial struct {
	st         *Store
	hash, path string
}

// partial names the staging file for hash, refusing anything but a
// well-formed content address: it becomes a file name.
func (st *Store) partial(hash string) (partial, error) {
	if !wire.ValidHash(hash) {
		return partial{}, fmt.Errorf("bad content hash %q", hash)
	}
	return partial{st, hash, filepath.Join(st.syncDir(), hash+".partial")}, nil
}

// size returns how many bytes are staged (0 when nothing is).
func (p partial) size() int64 {
	fi, err := os.Stat(p.path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (p partial) discard() { os.Remove(p.path) }

// write applies a frame's bytes and answers the authoritative staged count
// and how many bytes it applied. Only the unseen suffix is written, where it
// belongs: a replay of bytes already held (a lost ack) and a frame starting
// past them (the sender outran a swept partial) apply nothing, so the sender
// converges on the count and the file never has a hole.
func (p partial) write(offset int64, data []byte) (held int64, applied int, err error) {
	if offset < 0 {
		return 0, 0, fmt.Errorf("negative offset %d", offset)
	}
	held = p.size()
	if end := offset + int64(len(data)); end <= held || offset > held {
		return held, 0, nil
	}
	step := "write"
	if held == 0 {
		step = "create"
	}
	if err := p.st.at(step); err != nil {
		return held, 0, err
	}
	if err := os.MkdirAll(p.st.syncDir(), 0o755); err != nil {
		return held, 0, err
	}
	f, err := os.OpenFile(p.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return held, 0, err
	}
	unseen := data[held-offset:]
	_, err = f.WriteAt(unseen, held)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return held, 0, err
	}
	return held + int64(len(unseen)), len(unseen), nil
}

// finish admits a completed transfer once the staged bytes hash to the
// content address and parse as an archive. A transfer that fails either
// check is discarded — resuming it would fail the same way forever. Content
// another transfer stored meanwhile is a no-op returning that run.
func (p partial) finish(am AddMeta) (m RunMeta, warning string, err error) {
	got, size, err := fileSHA256(p.path)
	if err != nil {
		return m, "", fmt.Errorf("no complete transfer of %.12s: %w", p.hash, err)
	}
	if got != p.hash {
		p.discard()
		return m, "", fmt.Errorf("transfer fails content verification (want %.12s, got %.12s); partial discarded, retry", p.hash, got)
	}
	in, err := verifyStaged(p.path, am)
	if err != nil {
		p.discard()
		return m, "", fmt.Errorf("transfer is not a valid archive: %w", err)
	}
	in.onlyCopy, in.hash, in.size = true, got, size // hashed once, here
	err = p.st.withLock(func() error {
		if existing, ok := p.st.findByHashLocked(p.hash); ok {
			m, warning = existing, fmt.Sprintf("identical content already stored as %s", existing.ID)
			p.discard()
			return nil
		}
		m, warning, err = p.st.admitLocked(in)
		return err
	})
	return m, warning, err
}

// A SyncServer exposes one store to db push/pull peers over TCP: a
// wire.Server whose frames are syncReqs.
type SyncServer struct {
	*wire.Server
	st *Store
	// uploads serializes writers of one partial upload by content hash;
	// the wire lock table reaps entries as soon as the last holder
	// releases, so redial churn cannot grow it without bound.
	uploads *wire.LockTable
	dups    atomic.Int64
}

// Serve listens on addr ("127.0.0.1:0" picks a free port) and serves the
// store until Close. Store mutations triggered by peers go through the
// same advisory-locked paths the CLI uses, so a served store remains safe
// to use locally.
func Serve(st *Store, addr string) (*SyncServer, error) {
	s := &SyncServer{st: st, uploads: wire.NewLockTable()}
	srv, err := wire.Listen(addr, s.serve)
	if err != nil {
		return nil, fmt.Errorf("perfdb sync: listen: %w", err)
	}
	s.Server = srv
	return s, nil
}

// Frames returns how many request frames the server has processed.
func (s *SyncServer) Frames() int64 { return s.Stats().Frames }

// DuplicateFrames returns how many chunk frames re-asserted bytes the
// server already held — replays after lost acks, absorbed idempotently.
func (s *SyncServer) DuplicateFrames() int64 { return s.dups.Load() }

// serve answers one connection's requests, decoding each into one syncReq
// whose Data is the connection's one payload buffer, pushed or pulled.
func (s *SyncServer) serve(c *wire.ServerConn) {
	var lastSeq uint64
	var req syncReq
	for {
		// gob leaves a field the frame omits as it found it: reset them all.
		req = syncReq{Data: req.Data[:0]}
		if c.Read(&req) != nil {
			return
		}
		if req.Seq != 0 && req.Seq <= lastSeq {
			// A desynchronized stream replaying old frames; the ops are
			// idempotent, but a non-monotonic stream means the codec state
			// is suspect — drop the connection and let the client redial.
			return
		}
		lastSeq = req.Seq
		if c.Reply(s.dispatch(&req)) != nil {
			return
		}
	}
}

func syncErr(format string, args ...any) *syncResp {
	return &syncResp{Err: fmt.Sprintf(format, args...)}
}

func (s *SyncServer) dispatch(req *syncReq) *syncResp {
	switch req.Op {
	case opHello:
		if req.Proto != SyncProtoVersion {
			return syncErr("server speaks sync protocol %d, client %d", SyncProtoVersion, req.Proto)
		}
		return &syncResp{OK: true, Proto: SyncProtoVersion}
	case opList:
		runs := s.st.Runs()
		list := make([]syncRun, len(runs))
		for i, m := range runs {
			list[i] = syncRun{m.ID, m.Label, m.Verdict, m.Hash, m.Bytes}
		}
		return &syncResp{OK: true, Runs: list}
	case opPushBegin:
		return s.pushBegin(req)
	case opPushChunk:
		return s.pushChunk(req)
	case opPushEnd:
		return s.pushEnd(req)
	case opPullChunk:
		return s.pullChunk(req)
	}
	return syncErr("unknown op %d", req.Op)
}

func (s *SyncServer) pushBegin(req *syncReq) *syncResp {
	p, err := s.st.partial(req.Hash)
	if err != nil {
		return syncErr("push-begin: %v", err)
	}
	if m, ok := s.st.FindByHash(req.Hash); ok {
		return &syncResp{OK: true, Have: true, ID: m.ID, Warning: fmt.Sprintf("identical content already stored as %s", m.ID)}
	}
	release := s.uploads.Acquire(req.Hash)
	defer release()
	offset := p.size()
	if offset > req.Size { // hash-named, so never other content: corrupt
		p.discard()
		offset = 0
	}
	return &syncResp{OK: true, Offset: offset}
}

func (s *SyncServer) pushChunk(req *syncReq) *syncResp {
	p, err := s.st.partial(req.Hash)
	if err != nil {
		return syncErr("push-chunk: %v", err)
	}
	if wire.Checksum(req.Data) != req.CRC {
		return syncErr("push-chunk: CRC mismatch at offset %d", req.Offset)
	}
	release := s.uploads.Acquire(req.Hash)
	defer release()
	held, applied, err := p.write(req.Offset, req.Data)
	if err != nil {
		return syncErr("push-chunk: %v", err)
	}
	if applied == 0 && req.Offset <= held {
		s.dups.Add(1) // a replay, absorbed; the client gets the authoritative offset
	}
	return &syncResp{OK: true, Offset: held}
}

func (s *SyncServer) pushEnd(req *syncReq) *syncResp {
	p, err := s.st.partial(req.Hash)
	if err != nil {
		return syncErr("push-end: %v", err)
	}
	release := s.uploads.Acquire(req.Hash)
	defer release()
	// A replayed push-end after the ingest already happened dedupes via
	// the content address.
	if m, ok := s.st.FindByHash(req.Hash); ok {
		p.discard()
		return &syncResp{OK: true, Have: true, ID: m.ID}
	}
	m, warn, err := p.finish(AddMeta{Label: req.Label, Verdict: req.Verdict})
	if err != nil {
		return syncErr("push-end: %v", err)
	}
	return &syncResp{OK: true, ID: m.ID, Warning: warn}
}

func (s *SyncServer) pullChunk(req *syncReq) *syncResp {
	m, err := s.st.Get(req.ID)
	if err != nil {
		return syncErr("pull-chunk: %v", err)
	}
	if req.Hash != "" && m.Hash != req.Hash {
		return syncErr("pull-chunk: run %s content changed (hash mismatch)", m.ID)
	}
	f, err := os.Open(s.st.RunPath(m.ID))
	if err != nil {
		return syncErr("pull-chunk: %v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return syncErr("pull-chunk: %v", err)
	}
	size := fi.Size()
	if req.Offset > size || req.Offset < 0 {
		return syncErr("pull-chunk: offset %d beyond archive size %d", req.Offset, size)
	}
	chunk := req.Size
	if chunk <= 0 || chunk > MaxSyncChunkBytes {
		chunk = DefaultSyncChunkBytes
	}
	n := size - req.Offset
	if n > chunk {
		n = chunk
	}
	// Into the connection's payload buffer: Reply encodes before the next Read.
	data := slices.Grow(req.Data[:0], int(n))[:n]
	req.Data = data
	if _, err := io.ReadFull(io.NewSectionReader(f, req.Offset, n), data); err != nil {
		return syncErr("pull-chunk: read: %v", err)
	}
	return &syncResp{
		OK: true, Data: data, CRC: wire.Checksum(data),
		Offset: req.Offset, Size: size, EOF: req.Offset+n == size,
	}
}
