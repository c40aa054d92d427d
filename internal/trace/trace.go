// Package trace implements the tool's distributed event-tracing subsystem:
// the always-correct, low-overhead observability layer that complements the
// sampling/Performance-Consultant pipeline the same way the paper pairs the
// tool with MPE/Jumpshot traces as an independent comparator (§5.1.4–5.1.6).
//
// The design mirrors the tool's own data path. Every simulated process owns
// a bounded ring-buffered span Recorder stamped with the
// deterministic virtual clock; the MPI runtime records call spans (with
// argument metadata: peer, tag, bytes, communicator/window name), compute
// intervals, probe firings, and the happens-before edges that message
// matching, flow-control credits, internal sync points, RMA epochs and
// spawn create. Each node's daemon periodically drains its processes'
// recorders into Shards and ships them through the existing resilient
// outbox/transport path; the front end merges shards into one globally
// ordered Timeline. On top of the merged timeline sit the Chrome
// trace-event/Perfetto and CSV exporters (export.go) and the critical-path
// analyzer (critpath.go).
//
// When no tracer is installed the subsystem is fully inert: the hot paths
// guard on a single nil pointer and allocate nothing (asserted by
// BenchmarkTraceDisabled). See TRACING.md for the user-facing story.
package trace

import (
	"pperf/internal/sim"
)

// Kind classifies a Span.
type Kind uint8

const (
	// MPISpan is one MPI call interval on a process track (Depth 0 is the
	// outermost call; internals of collectives nest below it).
	MPISpan Kind = iota
	// ComputeSpan is an application compute interval (user or system CPU).
	ComputeSpan
	// ProbeEvent is an instant event: dynamic instrumentation executed at a
	// function entry/return point.
	ProbeEvent
	// DaemonSample is an instant event on a daemon track: one sampling tick.
	DaemonSample
	// TransportEvent is an instant event on a daemon track: transport
	// activity (a report buffered to the outbox, an outbox replay, a trace
	// shard flushed).
	TransportEvent
	// EdgeEvent is a happens-before edge recorded on the *destination*
	// process's track: Peer is the source process, Start the source-side
	// time, End the destination-side time. Name says what created it
	// ("msg", "rendezvous", "credit", "sync", "post", "complete", "rma",
	// "spawn").
	EdgeEvent
	// MarkEvent is a miscellaneous instant marker.
	MarkEvent
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case MPISpan:
		return "mpi"
	case ComputeSpan:
		return "compute"
	case ProbeEvent:
		return "probe"
	case DaemonSample:
		return "sample"
	case TransportEvent:
		return "transport"
	case EdgeEvent:
		return "edge"
	case MarkEvent:
		return "mark"
	}
	return "?"
}

// Span is one trace record. Instant events have End == Start.
type Span struct {
	// Seq is the global record order assigned by the Tracer — the
	// deterministic tie-break that keeps merged timelines byte-identical
	// across runs of the same seed.
	Seq  uint64
	Kind Kind
	// Proc is the owning track: a process name ("prog{N}") or a daemon name
	// ("paradynd@nodeK").
	Proc string
	// Node is the cluster node the track lives on.
	Node  string
	Name  string
	Start sim.Time
	End   sim.Time
	// Depth is the MPI call nesting depth (0 = outermost).
	Depth int

	// Argument metadata (zero/empty when inapplicable).
	Peer  string // edge source process, or peer rank for p2p/RMA calls
	Tag   int
	Bytes int
	Obj   string // communicator or window display name

	// Flow links a matched pair for exporter flow events (send→recv,
	// RMA origin→target); 0 means no flow.
	Flow uint64
	// Wait marks an EdgeEvent the destination actually blocked on; only
	// these participate in critical-path analysis.
	Wait bool
}

// Shard is one drained batch of a single track's spans, shipped from daemon
// to front end through the bulk channel of the report transport.
//
// A shard moves and is kept in its packed form (codec.go): the daemon packs a
// track's spans straight out of its ring (Recorder.DrainShard), a reader
// verifies received bytes into one (OpenShard), and such a shard has no
// Spans. Its header fields beside the bytes are copies for reading; only
// StampOutboxLost changes one. A shard built by hand from materialised Spans
// is accepted wherever a shard is — it is packed on its way in (Ingest) or out
// (Packed) — and UnpackShard materialises one: the adapter in and out of the
// one form, which the tool's own planes do not use.
type Shard struct {
	Daemon string
	Proc   string
	Node   string
	Spans  []Span
	// Dropped is the cumulative count of spans the track's ring recorder
	// evicted before they could be drained (trace back-pressure accounting).
	Dropped int64
	// OutboxLost is the cumulative count of the track's spans that had been
	// drained from the recorder but were then evicted from the daemon's
	// bounded bulk queue before delivery. Like Dropped it is a
	// monotone per-track counter; the timeline keeps the maximum seen.
	OutboxLost int64

	// packed is the packed form (header included, exactly PackShard's bytes),
	// never written once set; first is the smallest Seq among its spans.
	packed []byte
	first  uint64
}

// Config tunes the tracing subsystem.
type Config struct {
	// RingCapacity is the per-track span ring bound (the ring grows to it
	// on demand); older spans are evicted (and counted) when a track outruns
	// its drains. 0 means DefaultRingCapacity.
	RingCapacity int
	// FlushWatermark is the recorder fill level at which the owning daemon
	// is asked to drain and ship the track immediately over the bulk channel
	// instead of waiting for the next sampling tick. 0 means half the ring
	// capacity; negative disables eager shipping (shards then move only on
	// sampling ticks and the end-of-run flush, the pre-bulk-channel
	// behaviour).
	FlushWatermark int
}

// DefaultRingCapacity is the per-track recorder bound used when
// Config.RingCapacity is 0.
const DefaultRingCapacity = 1 << 15
