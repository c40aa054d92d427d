package trace

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"

	"pperf/internal/packed"
	"pperf/internal/sim"
)

// Timeline is the front end's merged view of every shard the daemons
// shipped: one globally ordered span stream keyed by the deterministic
// virtual clock (ties broken by the Tracer's global Seq, so the merge is
// byte-identical across runs of the same seed).
//
// Unlike the Tracer (engine context only), shards can arrive from TCP
// listener goroutines, so Timeline locks.
type Timeline struct {
	mu     sync.Mutex
	tracks map[string]*track
	pk     Packer // packs the shards handed over as materialised spans
}

// track is everything the timeline knows about one track.
type track struct {
	node string
	// shards are the ingested shards' packed bytes (never written), held by
	// reference in arrival order; spans is how many spans they hold and first
	// the smallest Seq among them. ingested counts shards, spans or not: a
	// track exists for Procs once it has ingested one (an undelivered note
	// alone does not make one).
	shards   [][]byte
	spans    int
	first    uint64
	ingested int
	// Loss counters: each is a cumulative per-track figure, so the maximum
	// seen is kept.
	dropped, outboxLost, undelivered int64
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{tracks: make(map[string]*track)}
}

func (tl *Timeline) track(proc string) *track {
	tr := tl.tracks[proc]
	if tr == nil {
		tr = &track{first: ^uint64(0)}
		tl.tracks[proc] = tr
	}
	return tr
}

// Ingest merges one shard. The timeline keeps the shard's packed bytes by
// reference and never writes to them; every producer (a recorder drain, the
// wire and archive readers' OpenShard) hands over bytes nothing else writes.
// A shard of materialised Spans is packed here, into an exact-size copy, and
// the caller keeps its slice.
func (tl *Timeline) Ingest(sh Shard) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tr := tl.track(sh.Proc)
	tr.ingested++
	tr.node = sh.Node
	if sh.packed == nil && len(sh.Spans) > 0 {
		tl.pk.seal(&sh, sh.Spans, nil)
	}
	if n := sh.Len(); n > 0 {
		tr.shards = append(tr.shards, sh.packed)
		tr.spans += n
		tr.first = min(tr.first, sh.first)
	}
	tr.dropped = max(tr.dropped, sh.Dropped)
	tr.outboxLost = max(tr.outboxLost, sh.OutboxLost)
}

// Stats is the timeline's counter block: shards ingested and the three
// span-loss counters, each a sum of per-track figures.
type Stats struct {
	Shards      int   // shards ingested, spans or not
	Dropped     int64 // spans evicted from a recorder's ring before a drain
	OutboxLost  int64 // spans drained, then evicted from a daemon's bulk queue
	Undelivered int64 // spans stranded in a daemon's bulk queue at end of run
}

// Lost returns the spans missing from the timeline for any reason.
func (s Stats) Lost() int64 { return s.Dropped + s.OutboxLost + s.Undelivered }

// Stats returns the counter block summed over the named tracks, or over
// every track when none is named.
func (tl *Timeline) Stats(procs ...string) Stats {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var s Stats
	for p, tr := range tl.tracks {
		if len(procs) == 0 || slices.Contains(procs, p) {
			s.Shards += tr.ingested
			s.Dropped += tr.dropped
			s.OutboxLost += tr.outboxLost
			s.Undelivered += tr.undelivered
		}
	}
	return s
}

// NoteUndelivered records that n of proc's spans were still stranded in a
// daemon's queues when the run ended (the transport never recovered). The
// count is a per-track total, so repeated notes are idempotent (the maximum
// is kept).
func (tl *Timeline) NoteUndelivered(proc string, n int64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tr := tl.track(proc)
	tr.undelivered = max(tr.undelivered, n)
}

// Lost returns the total spans missing from the merged timeline for any
// reason: ring eviction, bulk-queue eviction, or stranded undelivered at exit.
func (tl *Timeline) Lost() int64 { return tl.Stats().Lost() }

// Procs returns all track names: rank tracks first, then tool (daemon)
// tracks, each group ordered by first appearance in the global stream.
func (tl *Timeline) Procs() []string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var out []string
	for p, tr := range tl.tracks {
		if tr.ingested > 0 {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b string) int {
		return cmp.Or(cmp.Compare(trackPid(a), trackPid(b)), cmp.Compare(tl.tracks[a].first, tl.tracks[b].first), cmp.Compare(a, b))
	})
	return out
}

// isToolTrack reports whether a track belongs to the tool (daemon) rather
// than an application rank.
func isToolTrack(proc string) bool { return strings.HasPrefix(proc, "paradynd@") }

// trackPid returns the exporters' process group of a track, which is also
// the order of the groups: application ranks, then the tool.
func trackPid(proc string) int {
	if isToolTrack(proc) {
		return toolPid
	}
	return ranksPid
}

// Node returns the cluster node a track lives on.
func (tl *Timeline) Node(proc string) string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tr := tl.tracks[proc]; tr != nil {
		return tr.node
	}
	return ""
}

// held returns one track's packed shards in arrival order. The bytes are
// immutable and the slice is cut at its length, so the caller reads both
// without the lock.
func (tl *Timeline) held(proc string) [][]byte {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tr := tl.tracks[proc]; tr != nil {
		return tr.shards[:len(tr.shards):len(tr.shards)]
	}
	return nil
}

// heldAll returns every track's packed shards, tracks in name order, and how
// many spans they hold.
func (tl *Timeline) heldAll() (shards [][]byte, spans int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	names, n := make([]string, 0, len(tl.tracks)), 0
	for p, tr := range tl.tracks {
		names = append(names, p)
		n += len(tr.shards)
		spans += tr.spans
	}
	sort.Strings(names)
	shards = make([][]byte, 0, n)
	for _, p := range names {
		shards = append(shards, tl.tracks[p].shards...)
	}
	return shards, spans
}

// Spans returns every merged span globally ordered by (Start, Seq), in a
// fresh slice of exactly their number: the materialising way out of the
// timeline, for a consumer that wants a []Span. The exporters and Analyze do
// not — they read the shards where they lie (each, eachOrdered).
func (tl *Timeline) Spans() []Span {
	shards, n := tl.heldAll()
	out := make([]Span, n)
	var t packed.Table
	i := 0
	for _, data := range shards {
		for c, _ := ReadShard(&t, data); i < n && c.Next(&out[i]); i++ {
		}
	}
	// By index, not slices.SortFunc: its comparator would copy two 152-byte
	// Spans per call.
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		return a.Start < b.Start || a.Start == b.Start && a.Seq < b.Seq
	})
	return out
}

// each calls visit with every span of one track's shards, in arrival then
// record order, through one reused Span.
func (tl *Timeline) each(t *packed.Table, proc string, visit func(*Span)) {
	var s Span
	for _, data := range tl.held(proc) {
		for c, _ := ReadShard(t, data); c.Next(&s); {
			visit(&s)
		}
	}
}

// spanKey orders one record of one held shard: 24 bytes sorted in place of a
// 152-byte Span. A shard is in record order, not Start order, so the merge
// cannot run over per-shard cursors; the keys carry the two fields the order
// needs — the two a record delta-codes against its predecessor — and where
// the rest of the record lies.
type spanKey struct {
	start      sim.Time
	seq        uint64
	shard, off uint32
}

// eachOrdered calls visit with every merged span in (Start, Seq) order,
// through one reused Span: the keys are sorted, then each record is decoded
// where it lies. Beyond the keys it allocates the shards' dictionaries (one
// flat slice of strings) and a reader per shard, whatever the span count.
func (tl *Timeline) eachOrdered(visit func(*Span)) {
	shards, n := tl.heldAll()
	keys := make([]spanKey, 0, n)
	readers := make([]packed.Reader, len(shards))
	var (
		t     packed.Table
		dicts []string
		s     Span
	)
	for i, data := range shards {
		c, _ := ReadShard(&t, data)
		// The table reuses the dictionary for the next shard; keep a copy.
		dicts = append(dicts, c.r.Dict...)
		c.r.Dict = dicts[len(dicts)-len(c.r.Dict):]
		readers[i] = c.r
		for off := c.r.Pos; c.Next(&s); off = c.r.Pos {
			keys = append(keys, spanKey{s.Start, s.Seq, uint32(i), uint32(off)})
		}
	}
	slices.SortFunc(keys, func(a, b spanKey) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.seq, b.seq), cmp.Compare(a.shard, b.shard), cmp.Compare(a.off, b.off))
	})
	for _, k := range keys {
		c := ShardReader{r: readers[k.shard], left: 1}
		c.r.Pos = int(k.off)
		c.Next(&s)
		// Decoded without its predecessor, the delta-coded fields came out
		// as bare deltas (and End relative to that Start): they are the key's.
		s.End += k.start - s.Start
		s.Seq, s.Start = k.seq, k.start
		visit(&s)
	}
}
