// Package session defines the analysis plane's recordable event stream
// and replays it.
//
// An Event is the tool's one report type, end to end: a daemon builds its
// reports (sample batches, resource updates, trace shards) as Events and
// hands them to its daemon.Transport, the TCP frame carries the Event (a
// batch or shard in its packed form), and the front end folds it into its
// View with Apply — alongside the events it produces itself (metric enables,
// liveness verdicts, outage gaps, undelivered-span accounting, the
// Consultant's read barriers). A live run attaches a Sink to the front end
// (core.Options.Recorder) and every one of them is captured in order under
// one Header. A ReplaySource (replay.go) then re-presents a loaded Archive
// through the same DataSource interface the live front end implements, so
// the Performance Consultant can be re-run offline and reproduce the live
// findings byte for byte.
//
// The package owns the schema and the packed form of a sample batch
// (pack.go), which the wire and the archive share; a trace shard is born
// packed (trace/codec.go) and an Event carries it as it is. The one on-disk
// form (the chunked PPDBA2 format, packed throughout), its streaming recorder
// and its loader live in internal/perfdb; see PERFDB.md.
package session

import (
	"fmt"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// Version is the event-schema version this build reads and writes. Bump it
// on any incompatible change to Header or Event; the archive loader refuses
// archives whose version differs, with an error naming both versions.
const Version = 2

// Header is the archive preamble.
type Header struct {
	// Version is the format version the archive was written with.
	Version int
	// NumEvents is the number of Event records the archive holds.
	NumEvents int
	// NumBins and BinWidth mirror the front end's histogram configuration
	// so a replayed View folds samples into identical bins.
	NumBins  int
	BinWidth sim.Duration
	// Meta holds text pairs describing the run: what the store index and
	// humans read (program, seed, …) and, for a pperfmark recording, the
	// whole run record a replay re-drives the Consultant from.
	Meta map[string]string
}

// EventKind discriminates the Event union.
type EventKind int

const (
	// EvSamples is a batch of sampled metric deltas.
	EvSamples EventKind = iota
	// EvUpdate is one resource-update report.
	EvUpdate
	// EvEnable records a metric-enable outcome (Err empty on success).
	EvEnable
	// EvStale is a liveness verdict: the daemon Update.Daemon went stale at
	// Update.Time.
	EvStale
	// EvShard is one streamed trace shard.
	EvShard
	// EvUndelivered is end-of-run undelivered-span accounting for Proc.
	EvUndelivered
	// EvBarrier is a consumer read barrier (one per Consultant
	// evaluation); replay applies events up to the next barrier so the
	// k-th replayed evaluation sees exactly the state the k-th live
	// evaluation saw.
	EvBarrier
	// EvGap is one unmeasured outage window recorded by the daemon
	// supervisor (death → re-attach of the next incarnation).
	EvGap
)

func (k EventKind) String() string {
	switch k {
	case EvSamples:
		return "samples"
	case EvUpdate:
		return "update"
	case EvEnable:
		return "enable"
	case EvStale:
		return "stale"
	case EvShard:
		return "shard"
	case EvUndelivered:
		return "undelivered"
	case EvBarrier:
		return "barrier"
	case EvGap:
		return "gap"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one record of the analysis-plane stream. Only the fields for
// its Kind are meaningful; the flat union keeps the encoded stream to a
// single concrete type.
//
// Every workload builds thousands of Events, so the struct's size is a cost
// everywhere (TestEventSize): a stale verdict rides in Update's Daemon and
// Time rather than fields of its own, and a kept batch is one pointer.
type Event struct {
	Kind EventKind

	// EvSamples: the batch, as a live source built it (Samples) or kept
	// packed by an archive read (Batch); one of the two is set.
	Samples []datasource.Sample
	Batch   *PackedBatch
	Update  datasource.Update // EvUpdate; EvStale: its Daemon and Time

	Metric string         // EvEnable
	Focus  resource.Focus // EvEnable
	Err    string         // EvEnable: daemon refusal message, "" = success

	Shard trace.Shard // EvShard

	Proc string // EvUndelivered
	N    int64  // EvUndelivered

	Gap datasource.Gap // EvGap
}

// Apply folds the event into a View. It is the only code that does — the
// live front end runs it on every event it ingests, a ReplaySource on the
// recorded stream — so the two build the same state by construction.
// EvEnable and EvBarrier carry no View state: enables are answered from the
// series registry (live) or the replay index, and barriers only pace replay.
// A kept batch folds by dictionary index, decoding no string.
func (ev *Event) Apply(v *datasource.View) {
	switch ev.Kind {
	case EvSamples:
		if ev.Batch != nil {
			v.ApplyIndexed(ev.Batch)
			return
		}
		v.ApplySamples(ev.Samples)
	case EvUpdate:
		v.ApplyUpdate(ev.Update)
	case EvStale:
		v.MarkDaemonStale(ev.Update.Daemon, ev.Update.Time)
	case EvShard:
		v.ApplyShard(ev.Shard)
	case EvUndelivered:
		v.ApplyUndelivered(ev.Proc, ev.N)
	case EvGap:
		v.AddGap(ev.Gap)
	}
}

// Archive is a fully loaded session recording. Read from a file, its sample
// batches stay packed (Event.Batch); it is read-only to everything that
// replays or writes it.
type Archive struct {
	Header Header
	Events []Event
	// Truncated marks an archive whose stream ended before its trailer
	// (front end killed mid-run): Events holds only the complete prefix.
	// Replay proceeds up to the last complete read barrier (see Replayable
	// and TruncationNote), and the archive stays trailer-less when written.
	Truncated bool
}

// Replayable returns the events a replay presents and the read barriers
// among them. A complete archive presents every event — what follows its
// last barrier is the end-of-run tail ReplaySource.Drain applies. A truncated
// one ends at its last complete barrier: the tail past it is a fragment of an
// evaluation window no live consumer ever observed.
func (a *Archive) Replayable() (events []Event, barriers int) {
	last := 0
	for i := range a.Events {
		if a.Events[i].Kind == EvBarrier {
			last, barriers = i+1, barriers+1
		}
	}
	if !a.Truncated {
		last = len(a.Events)
	}
	return a.Events[:last], barriers
}

// TruncationNote returns the human-readable replay warning for a truncated
// archive, or "" when the archive is complete.
func (a *Archive) TruncationNote() string {
	if !a.Truncated {
		return ""
	}
	return fmt.Sprintf("[replay truncated after %d events]", len(a.Events))
}

// Sink is the full recording surface a session harness drives: the event
// stream plus header finalization. perfdb.StreamRecorder
// implements it; core.Options.Recorder and pperfmark.RunOptions.Record
// accept one.
type Sink interface {
	// Record captures one analysis-plane event, in arrival order. The
	// caller keeps ownership of its sample slice's backing array; a shard's
	// packed bytes, and a kept batch's, are nobody's to write.
	Record(ev Event)
	// SetHistogram records the front end's histogram configuration so
	// replay folds samples into identical bins.
	SetHistogram(numBins int, binWidth sim.Duration)
	// SetMeta stores one descriptive header key/value pair.
	SetMeta(k, v string)
}
