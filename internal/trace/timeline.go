package trace

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
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
}

// track is everything the timeline knows about one track.
type track struct {
	node string
	// shards are the ingested span slices, held by reference in arrival
	// order; spans is their total length and first the smallest Seq among
	// them. ingested counts shards, spans or not: a track exists for Procs
	// once it has ingested one (an undelivered note alone does not make one).
	shards   [][]Span
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

// Ingest merges one shard. The timeline keeps sh.Spans — it does not copy
// the slice and never writes to it — so the caller must not modify the
// spans afterwards; every producer (a recorder drain, the wire and archive
// decoders) hands over a slice nothing else writes.
func (tl *Timeline) Ingest(sh Shard) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tr := tl.track(sh.Proc)
	tr.ingested++
	tr.node = sh.Node
	if len(sh.Spans) > 0 {
		tr.shards = append(tr.shards, sh.Spans)
		tr.spans += len(sh.Spans)
		for i := range sh.Spans {
			tr.first = min(tr.first, sh.Spans[i].Seq)
		}
	}
	tr.dropped = max(tr.dropped, sh.Dropped)
	tr.outboxLost = max(tr.outboxLost, sh.OutboxLost)
}

// total sums one per-track figure over every track.
func (tl *Timeline) total(of func(*track) int64) int64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var n int64
	for _, tr := range tl.tracks {
		n += of(tr)
	}
	return n
}

// Shards returns the number of shards ingested.
func (tl *Timeline) Shards() int {
	return int(tl.total(func(tr *track) int64 { return int64(tr.ingested) }))
}

// Dropped returns the total spans lost to ring eviction across all tracks.
func (tl *Timeline) Dropped() int64 {
	return tl.total(func(tr *track) int64 { return tr.dropped })
}

// OutboxLost returns the total spans that were drained from recorders but
// evicted from a daemon's bounded outbox or bulk queue before delivery.
func (tl *Timeline) OutboxLost() int64 {
	return tl.total(func(tr *track) int64 { return tr.outboxLost })
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

// Undelivered returns the total spans stranded undelivered at end of run.
func (tl *Timeline) Undelivered() int64 {
	return tl.total(func(tr *track) int64 { return tr.undelivered })
}

// Lost returns the total spans missing from the merged timeline for any
// reason: ring eviction, outbox/bulk-queue eviction, or stranded
// undelivered at exit.
func (tl *Timeline) Lost() int64 {
	return tl.Dropped() + tl.OutboxLost() + tl.Undelivered()
}

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

// sortSpans puts spans in the timeline's total order: virtual start time,
// ties broken by the Tracer's global record sequence. (By index, not
// slices.SortFunc: its comparator would copy two 152-byte Spans per call.)
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		return a.Start < b.Start || a.Start == b.Start && a.Seq < b.Seq
	})
}

// Spans returns every merged span globally ordered by (Start, Seq), in a
// fresh slice of exactly their number.
func (tl *Timeline) Spans() []Span {
	tl.mu.Lock()
	n := 0
	for _, tr := range tl.tracks {
		n += tr.spans
	}
	out := make([]Span, 0, n)
	for _, tr := range tl.tracks {
		for _, spans := range tr.shards {
			out = append(out, spans...)
		}
	}
	tl.mu.Unlock()
	sortSpans(out)
	return out
}

// ProcSpans returns one track's spans ordered by (Start, Seq), in a fresh
// slice of exactly their number.
func (tl *Timeline) ProcSpans(proc string) []Span {
	tl.mu.Lock()
	out := []Span{}
	if tr := tl.tracks[proc]; tr != nil && tr.spans > 0 {
		out = slices.Concat(tr.shards...)
	}
	tl.mu.Unlock()
	sortSpans(out)
	return out
}
