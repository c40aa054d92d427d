// Package consultant implements the Performance Consultant: Paradyn's
// automated bottleneck search (§1, §5). It tests a small set of top-level
// hypotheses — ExcessiveSyncWaitingTime, ExcessiveIOBlockingTime, CPUBound —
// against thresholds while the program runs, and refines every true
// hypothesis along the "where" axes: the Code hierarchy (via the observed
// call graph), the Machine hierarchy (nodes, then processes), and the
// SyncObject hierarchy (Message communicators and tags, Barrier, RMA
// windows). Instrumentation is enabled only for foci under test and removed
// when a hypothesis is refuted, which is the point of dynamic
// instrumentation.
package consultant

import (
	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// Hypothesis names.
const (
	HypSync = "ExcessiveSyncWaitingTime"
	HypIO   = "ExcessiveIOBlockingTime"
	HypCPU  = "CPUBound"
)

// normKind says how per-process fractions aggregate into a hypothesis value.
type normKind int

const (
	// normAvg averages the per-process fractions (synchronization and I/O
	// waiting: "how much of the program's time is lost").
	normAvg normKind = iota
	// normMax takes the worst process (CPUBound: one hot process is a
	// bottleneck even if the others idle).
	normMax
)

type hypoSpec struct {
	name       string
	metricName string
	norm       normKind
	axes       []axis
}

type axis int

const (
	axisCode axis = iota
	axisMachine
	axisSync
)

// Config tunes the search.
type Config struct {
	// SyncThreshold, IOThreshold, CPUThreshold are the hypothesis-test
	// fractions. The paper lowers the CPU threshold from its default to 0.2
	// for diffuse-procedure (§5.1.6); the defaults here are 0.2/0.15/0.3.
	SyncThreshold float64
	IOThreshold   float64
	CPUThreshold  float64
	// EvalInterval is how often hypotheses are evaluated.
	EvalInterval sim.Duration
	// MinEvals is how many evaluations a node needs before it can test
	// true.
	MinEvals int
	// PruneEvals is how many consecutive false evaluations before a node's
	// instrumentation is removed.
	PruneEvals int
	// MaxDepth bounds refinement depth per axis chain.
	MaxDepth int
	// MaxNodes bounds the total search size.
	MaxNodes int
}

// DefaultConfig returns the standard thresholds and pacing.
func DefaultConfig() Config {
	return Config{
		SyncThreshold: 0.20,
		IOThreshold:   0.15,
		CPUThreshold:  0.30,
		EvalInterval:  1 * sim.Second,
		MinEvals:      2,
		PruneEvals:    12,
		MaxDepth:      5,
		MaxNodes:      400,
	}
}

// Engine is the scheduling surface the Consultant needs (satisfied by
// *sim.Engine).
type Engine interface {
	Every(d sim.Duration, fn func()) *sim.Ticker
	Now() sim.Time
}

// Consultant runs the search. It reads exclusively through the DataSource
// interface, so the same search runs against the live front end or an
// offline session replay.
type Consultant struct {
	ds    datasource.DataSource
	eng   Engine
	cfg   Config
	roots []*Node
	nodes int
	// seen dedupes (hypothesis, focus) across refinement paths: the same
	// focus is reachable by refining axes in different orders, and testing
	// it once suffices.
	seen map[tested]bool
}

// tested names one (hypothesis, canonical focus) the search has armed.
type tested struct {
	hypothesis string
	focus      resource.Focus
}

// Node is one point of the search: a hypothesis tested at a focus.
type Node struct {
	Hypothesis string
	Focus      resource.Focus
	Label      string // short display label for the refinement step

	spec     hypoSpec
	series   *datasource.Series
	lastVals map[string]float64 // per-proc cumulative cursor
	lastTime sim.Time           // sample-aligned cursor
	fracs    []float64          // update's per-process buffer, reused
	falseRun int
	trueRun  int

	// Value is the latest aggregated fraction.
	Value float64
	// True latches once the hypothesis tests true (the paper notes
	// random-barrier's waster moves around; a process stays diagnosed once
	// caught).
	True bool
	// Pruned marks nodes whose instrumentation was removed after repeated
	// false tests.
	Pruned bool
	// Partial marks a node that was evaluated while data coverage was
	// incomplete (processes lost to node or daemon failures): its verdict
	// rests on the surviving processes only.
	Partial bool
	// GapPartial marks a node whose evaluation interval overlapped an
	// unmeasured outage gap (daemon death → supervisor re-attach): the
	// interval's histogram zeros include windows where nothing was
	// collected, so the verdict understates activity on the gapped node.
	// Nodes evaluated entirely outside the gaps stay clean — gap damage
	// is scoped, not global.
	GapPartial bool

	Parent   *Node
	Children []*Node
	expanded bool
	depth    int
	c        *Consultant
}

// New creates a Consultant over any data source — the live front end or a
// session replay.
func New(ds datasource.DataSource, eng Engine, cfg Config) *Consultant {
	return &Consultant{ds: ds, eng: eng, cfg: cfg, seen: map[tested]bool{}}
}

// specs returns the top-level hypothesis set.
func (c *Consultant) specs() []hypoSpec {
	return []hypoSpec{
		{HypSync, "sync_wait_inclusive", normAvg, []axis{axisCode, axisSync, axisMachine}},
		{HypIO, "io_wait", normAvg, []axis{axisCode, axisMachine}},
		{HypCPU, "cpu_inclusive", normMax, []axis{axisCode, axisMachine}},
	}
}

// Start arms the top-level hypotheses and begins periodic evaluation.
func (c *Consultant) Start() error {
	for _, hs := range c.specs() {
		n, err := c.newNode(hs, resource.WholeProgram(), hs.name, nil)
		if err != nil {
			return err
		}
		c.roots = append(c.roots, n)
	}
	c.eng.Every(c.cfg.EvalInterval, c.evaluate)
	return nil
}

// Roots returns the top-level hypothesis nodes.
func (c *Consultant) Roots() []*Node { return c.roots }

func (c *Consultant) newNode(hs hypoSpec, f resource.Focus, label string, parent *Node) (*Node, error) {
	key := tested{hs.name, f.Canon()}
	if c.seen[key] {
		return nil, nil
	}
	c.seen[key] = true
	series, err := c.ds.EnableMetric(hs.metricName, f)
	if err != nil {
		return nil, err
	}
	n := &Node{
		Hypothesis: hs.name,
		Focus:      f,
		Label:      label,
		spec:       hs,
		series:     series,
		lastVals:   map[string]float64{},
		lastTime:   c.eng.Now(),
		Parent:     parent,
		c:          c,
	}
	// If the series pre-existed, start the cursors at its current state so
	// history before this node does not spike the first evaluation.
	for _, proc := range series.Procs() {
		n.lastVals[proc] = series.ProcHistogram(proc).Total()
	}
	if parent != nil {
		n.depth = parent.depth + 1
		parent.Children = append(parent.Children, n)
	}
	c.nodes++
	return n, nil
}

// evaluate walks every live node, updates its value over the last interval,
// latches true results (expanding them), and prunes persistent falses. The
// leading Sync is the evaluation's read barrier: a recording source stamps
// it into the archive, and a replaying source applies the recorded stream
// up to the matching barrier — so the k-th replayed evaluation reads
// exactly the state the k-th live evaluation read.
func (c *Consultant) evaluate() {
	c.ds.Sync()
	now := c.eng.Now()
	for _, r := range c.roots {
		c.walk(r, now)
	}
}

// walk evaluates n's subtree, children first.
func (c *Consultant) walk(n *Node, now sim.Time) {
	for _, ch := range n.Children {
		c.walk(ch, now)
	}
	if n.Pruned {
		return
	}
	n.update(now)
	if n.True && !n.expanded {
		c.expand(n)
	}
	if !n.True && n.falseRun >= c.cfg.PruneEvals {
		n.Pruned = true
		c.ds.DisableMetric(n.spec.metricName, n.Focus)
	}
}

// update computes the node's fraction over the interval since its last
// evaluation from the series' per-process histograms. The interval is
// aligned to the newest ingested sample so numerator and denominator cover
// exactly the same span.
func (n *Node) update(now sim.Time) {
	upto := n.series.LastSampleTime()
	interval := upto.Sub(n.lastTime).Seconds()
	if interval <= 0 {
		return
	}
	now = upto
	if n.c.ds.GapOverlaps(n.lastTime, upto) {
		n.GapPartial = true
	}
	fractions := n.fracs[:0]
	for _, proc := range n.series.Procs() {
		h := n.series.ProcHistogram(proc)
		cum := h.Total()
		delta := cum - n.lastVals[proc]
		n.lastVals[proc] = cum
		fractions = append(fractions, delta/interval)
	}
	n.fracs = fractions
	n.lastTime = now
	if n.c.ds.Coverage() < 1 {
		n.Partial = true
	}
	if len(fractions) == 0 {
		n.falseRun++
		return
	}
	switch n.spec.norm {
	case normMax:
		n.Value = 0
		for _, f := range fractions {
			if f > n.Value {
				n.Value = f
			}
		}
	default:
		s := 0.0
		for _, f := range fractions {
			s += f
		}
		n.Value = s / float64(len(fractions))
	}
	if n.Value > n.threshold() {
		n.trueRun++
		n.falseRun = 0
	} else {
		n.trueRun = 0
		n.falseRun++
	}
	// Latch true only after MinEvals consecutive over-threshold intervals,
	// so a single noisy window does not flag a hypothesis.
	if n.trueRun >= n.c.cfg.MinEvals {
		n.True = true
	}
}

func (n *Node) threshold() float64 {
	switch n.Hypothesis {
	case HypIO:
		return n.c.cfg.IOThreshold
	case HypCPU:
		return n.c.cfg.CPUThreshold
	default:
		return n.c.cfg.SyncThreshold
	}
}
