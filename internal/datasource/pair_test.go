package datasource_test

// Pairs are values: every spelling of a focus — components left empty or
// filled with the hierarchy roots — is one pair to the series registry, the
// replay enable index and the daemons; pairs order the way their joined key
// strings used to; and the per-sample path through the View allocates
// nothing.

import (
	"cmp"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pperf/internal/daemon"
	"pperf/internal/datasource"
	"pperf/internal/frontend"
	"pperf/internal/mdl"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// spellings returns every partially filled form of f: each component that
// is a hierarchy root also left empty (eight forms for the whole program).
func spellings(f resource.Focus) []resource.Focus {
	f = f.Canon()
	out := []resource.Focus{f}
	vary := func(root string, get func(*resource.Focus) *string) {
		for _, g := range out {
			if *get(&g) == root {
				*get(&g) = ""
				out = append(out, g)
			}
		}
	}
	vary("/Code", func(g *resource.Focus) *string { return &g.CodePath })
	vary("/Machine", func(g *resource.Focus) *string { return &g.MachinePath })
	vary("/SyncObject", func(g *resource.Focus) *string { return &g.SyncPath })
	return out
}

func TestEverySpellingOfAFocusIsOnePair(t *testing.T) {
	whole := spellings(resource.WholeProgram())
	if len(whole) != 8 || whole[7] != (resource.Focus{}) {
		t.Fatalf("spellings of the whole program: %v", whole)
	}
	foci := append(whole, spellings(resource.WholeProgram().WithCode("/Code/app.c/f"))...)

	// The series registry.
	v := datasource.NewView()
	first, existed := v.RegisterSeries("m", whole[0])
	fn, _ := v.RegisterSeries("m", resource.Focus{CodePath: "/Code/app.c/f"})
	if existed || fn == first {
		t.Fatal("a fresh view already held the series, or two foci shared one")
	}
	for i, f := range foci {
		want := first
		if !f.IsWholeProgram() {
			want = fn
		}
		if s, existed := v.RegisterSeries("m", f); s != want || !existed {
			t.Errorf("RegisterSeries(%q): series %p existed=%v, want the one series %p", f, s, existed, want)
		}
		if v.Series("m", f) != want {
			t.Errorf("Series(%q) missed", f)
		}
		v.ApplySamples([]datasource.Sample{{Metric: "m", Focus: f, Proc: "p0", Time: sim.Time(i), Delta: 1}})
	}
	if first.Total() != 8 || fn.Total() != 4 {
		t.Errorf("samples under every spelling: totals %v and %v, want 8 and 4", first.Total(), fn.Total())
	}
	if first.Focus != whole[0] {
		t.Errorf("the series kept focus %#v, want what its first caller passed", first.Focus)
	}
	v.DropSeries("m", resource.Focus{})
	if v.Series("m", resource.WholeProgram()) != nil || v.Series("m", foci[8]) != fn {
		t.Error("DropSeries by another spelling did not drop exactly that pair")
	}

	// The replay enable index: one recorded outcome answers every spelling.
	for _, recorded := range whole {
		rs := session.NewReplaySource(&session.Archive{Events: []session.Event{
			{Kind: session.EvEnable, Metric: "ok", Focus: recorded},
			{Kind: session.EvEnable, Metric: "bad", Focus: recorded, Err: "refused"},
		}})
		var one *datasource.Series
		for _, f := range whole {
			s, err := rs.EnableMetric("ok", f)
			if err != nil || s == nil || (one != nil && s != one) {
				t.Errorf("recorded under %#v, replayed under %#v: series %p err %v", recorded, f, s, err)
			}
			one = s
			if _, err := rs.EnableMetric("bad", f); err == nil || err.Error() != "refused" {
				t.Errorf("recorded refusal under %#v, replayed under %#v: err %v", recorded, f, err)
			}
		}
	}

	// The live side: enabled under one spelling, already on and disabled
	// under any other.
	for _, on := range whole {
		for _, off := range whole {
			eng := sim.NewEngine(1)
			fe := frontend.New()
			d := daemon.New(eng, 0, "node0", mdl.StdLib(), fe, daemon.DefaultConfig())
			roster := &daemon.Registry{}
			roster.Replace(d)
			fe.SetDaemons(roster)
			s, err := fe.EnableMetric("msgs_sent", on)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := fe.EnableMetric("msgs_sent", off); again != s || err != nil || d.Stats().Enabled != 1 {
				t.Errorf("on as %#v, again as %#v: series %p err %v, daemon holds %d enables", on, off, again, err, d.Stats().Enabled)
			}
			fe.DisableMetric("msgs_sent", off)
			if d.Stats().Enabled != 0 {
				t.Errorf("on as %#v, off as %#v: daemon still holds %d enables", on, off, d.Stats().Enabled)
			}
		}
	}
}

// oldKey is the registry key pairs were sorted and aligned by before they
// were compared as values; ComparePairs must order exactly as it did.
func oldKey(p datasource.Pair) string {
	f := p.Focus.Canon()
	return p.Metric + "\x00" + f.CodePath + "\x00" + f.MachinePath + "\x00" + f.SyncPath
}

func TestComparePairsOrdersAsTheKeyStringDid(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// A small vocabulary full of prefix relations, so that most comparisons
	// are decided at a component boundary.
	names := []string{"", "a", "ab", "abc", "b", "a/b", "a b", "~", "\x01"}
	name := func() string { return names[rng.Intn(len(names))] }
	path := func(root string) string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return root
		}
		return root + "/" + name() + name()
	}
	pairs := make([]datasource.Pair, 10000)
	for i := range pairs {
		pairs[i] = datasource.Pair{Metric: name() + name(), Focus: resource.Focus{
			CodePath: path("/Code"), MachinePath: path("/Machine"), SyncPath: path("/SyncObject"),
		}}
	}
	for i := 1; i < len(pairs); i++ {
		a, b := pairs[i-1], pairs[i]
		want := strings.Compare(oldKey(a), oldKey(b))
		if got := cmp.Compare(datasource.ComparePairs(a, b), 0); got != want {
			t.Fatalf("ComparePairs(%#v, %#v) = %d, the key strings compare %d", a, b, got, want)
		}
		if (datasource.ComparePairs(a, b) == 0) != (a.Canon() == b.Canon()) {
			t.Fatalf("ComparePairs(%#v, %#v) and Canon equality disagree", a, b)
		}
	}
	byValue := append([]datasource.Pair(nil), pairs...)
	sort.SliceStable(byValue, func(i, j int) bool { return datasource.ComparePairs(byValue[i], byValue[j]) < 0 })
	sort.SliceStable(pairs, func(i, j int) bool { return oldKey(pairs[i]) < oldKey(pairs[j]) })
	for i := range pairs {
		if pairs[i] != byValue[i] {
			t.Fatalf("sorted position %d: by value %#v, by key string %#v", i, byValue[i], pairs[i])
		}
	}
}

// The allocation budget of the sample path in steady state: folding a
// 24-sample batch — registered and unregistered pairs, foci spelled
// canonically and left zero — looking a series up, and listing its
// processes all cost nothing.
func TestSamplePathAllocatesNothing(t *testing.T) {
	v := datasource.NewView()
	metrics := []string{"msgs_sent", "sync_wait_inclusive", "cpu_inclusive", "never_enabled"}
	for _, m := range metrics[:3] {
		v.RegisterSeries(m, resource.WholeProgram())
	}
	batch := make([]datasource.Sample, 24)
	for i := range batch {
		batch[i] = datasource.Sample{
			Metric: metrics[i%4], Proc: []string{"p0", "p1", "p2"}[i%3],
			Time: sim.Time(i) * sim.Time(50*sim.Millisecond), Delta: 1,
		}
		if i%2 == 0 {
			batch[i].Focus = resource.WholeProgram()
		}
	}
	v.ApplySamples(batch) // first samples create the per-process histograms
	if n := testing.AllocsPerRun(100, func() { v.ApplySamples(batch) }); n != 0 {
		t.Errorf("ApplySamples of a 24-sample batch: %v allocs, want 0", n)
	}
	var s *datasource.Series
	if n := testing.AllocsPerRun(100, func() { s = v.Series("msgs_sent", resource.Focus{}) }); n != 0 || s == nil {
		t.Errorf("Series lookup: %v allocs (series %p), want 0", n, s)
	}
	var procs []string
	if n := testing.AllocsPerRun(100, func() { procs = s.Procs() }); n != 0 || len(procs) != 3 || !sort.StringsAreSorted(procs) {
		t.Errorf("Procs: %v allocs, %v; want 0 and three sorted names", n, procs)
	}
	if got := v.Series("sync_wait_inclusive", resource.Focus{}).Total(); got != 6*102 {
		t.Errorf("sync_wait_inclusive total %v, want %d", got, 6*102)
	}
}
