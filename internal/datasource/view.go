package datasource

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"pperf/internal/metric"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// View is the source-agnostic analysis-plane state: metric series, the
// mirrored resource hierarchy, the observed call graph, process lifecycle,
// daemon liveness and the merged trace timeline. The live front end feeds
// one from daemon reports; the replay source feeds one from a recorded
// archive. Both expose it as the query half of the DataSource interface.
type View struct {
	mu      sync.Mutex
	hier    *resource.Hierarchy
	series  map[Pair]*Series // keyed by the canonical pair
	edges   map[string]map[string]bool
	callees map[string]bool
	procs   map[string]*ProcInfo

	// liveness is per-daemon last-contact state (nil until a fault plan
	// arms the liveness monitor or a daemon-stamped report arrives).
	liveness map[string]*DaemonHealth

	// gaps are the unmeasured outage windows recorded by the supervisor
	// (nil for runs without recoveries).
	gaps []Gap

	// timeline merges the trace shards the daemons streamed (nil until
	// EnableTrace, the first shard or the first undelivered note).
	timeline *trace.Timeline

	// NumBins/BinWidth configure new histograms (defaults are Paradyn's).
	NumBins  int
	BinWidth sim.Duration
	// Horizon is the newest sample time a replay will apply (live: unset);
	// new histograms reserve their bins up to it.
	Horizon sim.Time

	// slots holds what each target of numbering resolved to, fold the
	// cursor of ApplyIndexed; gen counts the series registered.
	numbering *Numbering
	slots     []slot
	fold      IndexedFold
	gen       uint32
}

// NewView creates an empty view.
func NewView() *View { return NewSizedView(0) }

// NewSizedView creates an empty view whose series registry holds pairs pairs
// before it grows: a replay knows how many it can register.
func NewSizedView(pairs int) *View {
	return &View{
		hier:    resource.New(),
		series:  make(map[Pair]*Series, pairs),
		edges:   map[string]map[string]bool{},
		callees: map[string]bool{},
		procs:   map[string]*ProcInfo{},
	}
}

// --- series registry --------------------------------------------------------

// Series returns the series for a metric-focus pair, or nil.
func (v *View) Series(metricName string, focus resource.Focus) *Series {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.series[Pair{metricName, focus}.Canon()]
}

// RegisterSeries returns the pair's series, creating it if needed. The
// second result reports whether the series already existed.
func (v *View) RegisterSeries(metricName string, focus resource.Focus) (*Series, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	key := Pair{metricName, focus}.Canon()
	if s, ok := v.series[key]; ok {
		return s, true
	}
	s := &Series{Metric: metricName, Focus: focus, agg: metric.NewHistogram(v.NumBins, v.BinWidth)}
	s.agg.Reserve(v.Horizon)
	v.series[key] = s
	v.gen++
	return s, false
}

// DropSeries unregisters a pair (the live front end's rollback path for a
// failed all-or-nothing enable). Every slot is cleared: one may hold the
// dropped series.
func (v *View) DropSeries(metricName string, focus resource.Focus) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.series, Pair{metricName, focus}.Canon())
	clear(v.slots)
}

// --- ingest -----------------------------------------------------------------

// ApplySamples folds a batch of sampled deltas into the registered series.
// Samples for unregistered pairs are skipped (disabled while in flight).
func (v *View) ApplySamples(batch []Sample) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range batch {
		sm := &batch[i]
		if s, ok := v.series[Pair{sm.Metric, sm.Focus}.Canon()]; ok {
			s.add(v.place(s, sm.Proc), sm.Time, sm.Delta)
		}
	}
}

// place returns proc's index in s.procs and s.hists, inserting the process
// on its first sample. Caller holds v.mu.
func (v *View) place(s *Series, proc string) int {
	i, ok := slices.BinarySearch(s.procs, proc)
	if ok {
		return i
	}
	if s.procs == nil { // sized once, for every process the view knows
		s.procs = make([]string, 0, max(len(v.procs), 1))
		s.hists = make([]*metric.Histogram, 0, cap(s.procs))
	}
	// A lone reporter's histogram is the aggregate; a second splits it off.
	if len(s.procs) == 1 {
		s.hists[0] = s.agg.Clone()
	}
	ph := s.agg
	if len(s.procs) > 0 {
		ph = metric.NewHistogram(v.NumBins, v.BinWidth)
		ph.Reserve(v.Horizon)
	}
	s.procs = slices.Insert(s.procs, i, proc)
	s.hists = slices.Insert(s.hists, i, ph)
	s.inserts++
	return i
}

// add folds one sample into s's aggregate and the histogram at place.
func (s *Series) add(place int, t sim.Time, delta float64) {
	if t > s.lastT {
		s.lastT = t
	}
	s.agg.Add(t, delta)
	if ph := s.hists[place]; ph != s.agg {
		ph.Add(t, delta)
	}
}

// Dict is the dictionary of packed sample batches (IndexedBatch): a sample
// names its metric, focus paths and process by five indexes into Strs.
// Targets numbers, per sample position of the batches that share the Dict,
// the canonical pair and process those name, in a Numbering that every Dict
// of one archive read shares.
type Dict struct {
	Strs      []string
	Targets   []int32
	Numbering *Numbering
}

// Numbering numbers N targets: a View resolves each once.
type Numbering struct{ N int }

// IndexedBatch is a sample batch that names through a Dict: Walk hands each
// of its samples to f.Add, in order.
type IndexedBatch interface {
	Dictionary() *Dict
	Walk(f *IndexedFold)
}

// slot is what a target resolved to: a series and the process's place in
// it, or no series.
type slot struct {
	s     *Series
	place int32  // -1 until placed
	stamp uint32 // s.inserts when placed, else View.gen when resolved
}

// ApplyIndexed folds an indexed batch exactly as ApplySamples folds the same
// samples, but resolves each target of its Numbering through the strings once,
// and again only when what it found moves: a series registered where there
// was none, a process inserted into the series.
func (v *View) ApplyIndexed(b IndexedBatch) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d := b.Dictionary()
	if d.Numbering != v.numbering {
		v.numbering, v.slots = d.Numbering, make([]slot, d.Numbering.N)
	}
	v.fold = IndexedFold{v: v, d: d}
	b.Walk(&v.fold)
}

// IndexedFold is a View's cursor over the batch ApplyIndexed folds.
type IndexedFold struct {
	v *View
	d *Dict
	i int
}

// Add folds the batch's next sample: its five indexes, time and delta.
func (f *IndexedFold) Add(idx [5]uint64, t sim.Time, delta float64) {
	v, strs, sl := f.v, f.d.Strs, &f.v.slots[f.d.Targets[f.i]]
	f.i++
	if sl.s == nil && sl.stamp != v.gen {
		focus := resource.Focus{CodePath: strs[idx[1]], MachinePath: strs[idx[2]], SyncPath: strs[idx[3]]}
		*sl = slot{s: v.series[Pair{strs[idx[0]], focus}.Canon()], place: -1, stamp: v.gen}
	}
	if sl.s == nil {
		return
	}
	if sl.place < 0 || sl.stamp != sl.s.inserts {
		sl.place, sl.stamp = int32(v.place(sl.s, strs[idx[4]])), sl.s.inserts
	}
	sl.s.add(int(sl.place), t, delta)
}

// ApplyUpdate folds one resource-update report into the view.
func (v *View) ApplyUpdate(u Update) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if u.Daemon != "" {
		v.noteDaemonLocked(u.Daemon, u.Time)
	}
	switch u.Kind {
	case UpAddResource:
		n := v.hier.AddPath(u.Path)
		if u.Display != "" {
			n.SetDisplayName(u.Display)
		}
		if strings.HasPrefix(u.Path, "/Machine/") {
			parts := strings.Split(strings.TrimPrefix(u.Path, "/Machine/"), "/")
			if len(parts) == 2 {
				if _, ok := v.procs[parts[1]]; !ok {
					v.procs[parts[1]] = &ProcInfo{Name: parts[1], Node: parts[0], Started: u.Time}
				}
			}
		}
	case UpRetire:
		if n := v.hier.FindPath(u.Path); n != nil {
			n.Retire()
		}
	case UpSetName:
		v.hier.AddPath(u.Path).SetDisplayName(u.Display)
	case UpCallEdge:
		m, ok := v.edges[u.Caller]
		if !ok {
			m = map[string]bool{}
			v.edges[u.Caller] = m
		}
		m[u.Callee] = true
		v.callees[u.Callee] = true
	case UpProcessExit:
		if p, ok := v.procs[u.Proc]; ok {
			p.Exited = true
			p.EndTime = u.Time
		}
		if n := v.hier.FindPath(u.Path); n != nil {
			n.Retire() // exited processes gray out and leave the PC's candidate set
		}
	case UpProcessLost:
		v.markProcLostLocked(u.Proc, u.Path, u.Time)
	case UpHeartbeat:
		// Liveness was recorded above; nothing else to do.
	}
}

// noteDaemonLocked records contact with a daemon; a stale daemon that
// reports again recovers, and its un-exited processes stop being lost.
// Caller holds v.mu.
func (v *View) noteDaemonLocked(name string, t sim.Time) {
	if v.liveness == nil {
		v.liveness = map[string]*DaemonHealth{}
	}
	dh, ok := v.liveness[name]
	if !ok {
		dh = &DaemonHealth{Name: name, Node: DaemonNode(name)}
		v.liveness[name] = dh
	}
	if t > dh.LastSeen {
		dh.LastSeen = t
	}
	if dh.Stale {
		dh.Stale = false
		// Recovery: data flows again for this daemon's processes.
		for _, p := range v.procs {
			if p.Node == dh.Node && p.Lost && !p.Exited {
				p.Lost = false
				p.LostTime = 0
				if n := v.hier.FindPath("/Machine/" + p.Node + "/" + p.Name); n != nil {
					n.Unretire()
				}
			}
		}
	}
}

// markProcLostLocked marks one process lost and retires its hierarchy node.
// Caller holds v.mu.
func (v *View) markProcLostLocked(proc, path string, t sim.Time) {
	if p, ok := v.procs[proc]; ok && !p.Exited && !p.Lost {
		p.Lost = true
		p.LostTime = t
	}
	if path != "" {
		if n := v.hier.FindPath(path); n != nil {
			n.Retire()
		}
	}
}

// SilentDaemons returns, sorted by name, the daemons silent for longer than
// timeout and not already marked stale — the liveness monitor's verdict set
// for one check. Sorted iteration keeps detection order (and anything
// recorded from it) independent of map layout.
func (v *View) SilentDaemons(now sim.Time, timeout sim.Duration) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []string
	for name, dh := range v.liveness {
		if !dh.Stale && now.Sub(dh.LastSeen) > timeout {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// MarkDaemonStale marks one daemon stale: its un-exited processes become
// lost at time now and their hierarchy nodes retire.
func (v *View) MarkDaemonStale(name string, now sim.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	dh := v.liveness[name]
	if dh == nil || dh.Stale {
		return
	}
	dh.Stale = true
	for _, p := range v.procs {
		if p.Node == dh.Node && !p.Exited && !p.Lost {
			p.Lost = true
			p.LostTime = now
			if n := v.hier.FindPath("/Machine/" + p.Node + "/" + p.Name); n != nil {
				n.Retire()
			}
		}
	}
}

// AddGap records one unmeasured outage window: no samples exist for the
// node between From and To, so histogram zeros across it are absence of
// measurement, not absence of activity.
func (v *View) AddGap(g Gap) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.gaps = append(v.gaps, g)
}

// EnableTrace returns the merged trace timeline, creating it empty on first
// use: a traced run has one even when zero shards arrive. v.mu guards only
// the pointer — the Timeline locks itself — so a TCP listener goroutine
// merging a shard never holds up queries.
func (v *View) EnableTrace() *trace.Timeline {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.timeline == nil {
		v.timeline = trace.NewTimeline()
	}
	return v.timeline
}

// Timeline returns the merged trace timeline (nil when the session never
// traced).
func (v *View) Timeline() *trace.Timeline {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.timeline
}

// ApplyShard merges one streamed trace shard into the timeline. The
// timeline keeps the shard's packed bytes, never sh itself, so the caller may
// reuse sh once ApplyShard returns.
func (v *View) ApplyShard(sh *trace.Shard) { v.EnableTrace().Ingest(*sh) }

// ApplyUndelivered folds proc's end-of-run undelivered-span count into the
// timeline.
func (v *View) ApplyUndelivered(proc string, n int64) { v.EnableTrace().NoteUndelivered(proc, n) }

// UnmeasuredGaps returns the recorded outage windows in record order.
func (v *View) UnmeasuredGaps() []Gap {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]Gap(nil), v.gaps...)
}

// GapOverlaps reports whether any unmeasured gap intersects the half-open
// interval (from, to].
func (v *View) GapOverlaps(from, to sim.Time) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, g := range v.gaps {
		if g.From < to && g.To > from {
			return true
		}
	}
	return false
}

// --- queries ----------------------------------------------------------------

// Hierarchy returns the resource-hierarchy mirror.
func (v *View) Hierarchy() *resource.Hierarchy { return v.hier }

// Callees returns the observed callees of a function, sorted.
func (v *View) Callees(caller string) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []string
	for c := range v.edges[caller] {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// IsCallee reports whether the function has been observed as someone's
// callee. Functions that never appear as callees are the program's
// call-graph roots — the entry points of the Performance Consultant's
// code-axis search.
func (v *View) IsCallee(fname string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.callees[fname]
}

// Processes returns known processes sorted by name.
func (v *View) Processes() []*ProcInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*ProcInfo, 0, len(v.procs))
	for _, p := range v.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProcessCount returns the number of processes ever seen.
func (v *View) ProcessCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.procs)
}

// Coverage returns the fraction of known processes whose data is trustworthy
// (not lost): 1.0 for a healthy run, < 1.0 when node crashes or daemon
// failures left ranks unobserved. With no processes known it reports 1.0.
func (v *View) Coverage() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.procs) == 0 {
		return 1.0
	}
	lost := 0
	for _, p := range v.procs {
		if p.Lost {
			lost++
		}
	}
	return 1.0 - float64(lost)/float64(len(v.procs))
}

// DegradationSummary describes data-coverage damage for reports: which
// processes are lost and the resulting coverage fraction. Empty string when
// coverage is full.
func (v *View) DegradationSummary() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var lost []string
	for _, p := range v.procs {
		if p.Lost {
			lost = append(lost, fmt.Sprintf("%s@%s (stale since %v)", p.Name, p.Node, p.LostTime))
		}
	}
	if len(lost) == 0 {
		return ""
	}
	sort.Strings(lost)
	cov := 1.0 - float64(len(lost))/float64(len(v.procs))
	return fmt.Sprintf("coverage %.2f: %d of %d processes lost — %s",
		cov, len(lost), len(v.procs), strings.Join(lost, ", "))
}

// ExportCSV writes the series' per-bin data — time, aggregate value, and one
// column per process — the way the paper's authors exported Paradyn's
// histogram data to compute byte totals and averages (§5.1.2 etc.).
func (v *View) ExportCSV(s *Series) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var b strings.Builder
	b.WriteString("bin_start_s,all")
	for _, p := range s.procs {
		b.WriteString("," + p)
	}
	b.WriteByte('\n')
	width := s.agg.BinWidth().Seconds()
	for i := 0; i < s.agg.NumFilled(); i++ {
		fmt.Fprintf(&b, "%.3f,%g", float64(i)*width, s.agg.Bin(i))
		for _, ph := range s.hists {
			// Per-process histograms can fold at different times; export
			// the value at the aggregate's bin granularity.
			val := 0.0
			if ph.BinWidth() == s.agg.BinWidth() {
				val = ph.Bin(i)
			} else {
				// Re-bin: sum the process bins covering this interval.
				ratio := float64(s.agg.BinWidth()) / float64(ph.BinWidth())
				lo := int(float64(i) * ratio)
				hi := int(float64(i+1) * ratio)
				for j := lo; j < hi; j++ {
					val += ph.Bin(j)
				}
			}
			fmt.Fprintf(&b, ",%g", val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CounterTracks renders every whole-program series as one Perfetto counter
// track: a point per filled histogram bin, valued as the bin's rate (the
// folding histogram's value divided by its bin width). Tracks are sorted by
// metric name so the export is byte-stable.
func (v *View) CounterTracks() []trace.CounterTrack {
	v.mu.Lock()
	defer v.mu.Unlock()
	var whole []*Series
	for _, s := range v.series {
		if s.Focus.IsWholeProgram() {
			whole = append(whole, s)
		}
	}
	sort.Slice(whole, func(i, j int) bool { return whole[i].Metric < whole[j].Metric })
	out := make([]trace.CounterTrack, 0, len(whole))
	for _, s := range whole {
		ct := trace.CounterTrack{Name: s.Metric}
		h := s.agg
		width := h.BinWidth()
		secs := width.Seconds()
		for i := 0; i < h.NumFilled(); i++ {
			ct.Points = append(ct.Points, trace.CounterPoint{
				TsNs:  int64(i) * int64(width),
				Value: h.Bin(i) / secs,
			})
		}
		out = append(out, ct)
	}
	return out
}
