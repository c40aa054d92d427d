package wire

import "sync"

// DefaultDedupeWindows bounds how many (peer, channel) dedupe windows a
// receiver keeps. Far above any deployment's live peer count, low enough
// that a listener fed ever-fresh peer identities (a redial storm of renamed
// daemons, a chaos harness) reaches a steady state instead of growing
// without bound.
const DefaultDedupeWindows = 1024

// dedupeWin is one (peer, channel) window: the newest sender incarnation
// seen and that incarnation's per-channel sequence high-water mark.
type dedupeWin struct {
	inc  uint64
	seq  uint64
	used uint64 // logical access tick, for least-recently-used eviction
}

type dedupeKey struct{ peer, ch string } // one window per (peer, channel)

// Dedupe is the receiver half of the wire plane's idempotent delivery: it
// tracks, per (peer, channel), the newest sender incarnation and its
// sequence high-water mark, so a frame replayed after a lost
// acknowledgement is recognized (and skipped) instead of double-applied,
// and a straggler frame from a dead sender incarnation is fenced out. A
// frame from a newer incarnation resets the channel's sequence space: the
// respawned sender numbers its frames from 1 again.
//
// The window table is bounded: beyond limit entries, the least recently
// used window is evicted. Evicting a live peer's window only weakens
// dedupe back to at-least-once for that peer's next frame — every frame
// consumer behind it is idempotent by construction — so a bounded table is
// safe, and a long-lived listener cannot accumulate state forever.
type Dedupe struct {
	mu    sync.Mutex
	limit int
	tick  uint64
	wins  map[dedupeKey]*dedupeWin
	by    map[string]*Stats // per channel: Frames, Duplicates, StaleFrames
}

// NewDedupe returns a window table bounded to limit (0 or negative selects
// DefaultDedupeWindows).
func NewDedupe(limit int) *Dedupe {
	if limit <= 0 {
		limit = DefaultDedupeWindows
	}
	return &Dedupe{limit: limit, wins: map[dedupeKey]*dedupeWin{}, by: map[string]*Stats{}}
}

// Seen counts the frame for its channel and reports (and records) whether
// it must be skipped — either a replay the receiver already applied, or a
// straggler from a dead sender incarnation. Senders number frames from 1
// (Conn.Exchange), so seq 0 is at or below every window's mark and is
// always skipped.
func (d *Dedupe) Seen(peer, ch string, inc, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.by[ch]
	if st == nil {
		st = &Stats{}
		d.by[ch] = st
	}
	st.Frames++
	d.tick++
	key := dedupeKey{peer, ch}
	w := d.wins[key]
	if w == nil {
		d.evictLocked()
		w = &dedupeWin{}
		d.wins[key] = w
	}
	w.used = d.tick
	switch {
	case inc < w.inc:
		st.StaleFrames++
		return true
	case inc > w.inc:
		w.inc = inc
		w.seq = 0
	}
	if seq <= w.seq {
		st.Duplicates++
		return true
	}
	w.seq = seq
	return false
}

// evictLocked drops the least recently used window when the table is full.
// Eviction is rare (only at the bound), so a linear scan is fine.
func (d *Dedupe) evictLocked() {
	if len(d.wins) < d.limit {
		return
	}
	victim, oldest := dedupeKey{}, ^uint64(0)
	for k, w := range d.wins {
		if w.used < oldest {
			victim, oldest = k, w.used
		}
	}
	delete(d.wins, victim)
}

// ChannelStats returns the receiver-side counters for one channel (ChanCtl,
// ChanBulk, ChanSync): frames presented, replays skipped, and
// dead-incarnation stragglers fenced out.
func (d *Dedupe) ChannelStats(ch string) Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.by[ch]; st != nil {
		return *st
	}
	return Stats{}
}
