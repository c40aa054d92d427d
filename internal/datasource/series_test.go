package datasource_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/metric"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// histDiff describes how two histograms differ through their accessors, bit
// for bit, or returns "" when they agree on everything.
func histDiff(got, want *metric.Histogram, numBins int) string {
	if got.NumFilled() != want.NumFilled() || got.BinWidth() != want.BinWidth() || got.String() != want.String() {
		return fmt.Sprintf("%v, want %v", got, want)
	}
	if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
		return fmt.Sprintf("Total %v, want %v", got.Total(), want.Total())
	}
	for i := 0; i < numBins; i++ {
		if math.Float64bits(got.Bin(i)) != math.Float64bits(want.Bin(i)) {
			return fmt.Sprintf("Bin(%d) %v, want %v", i, got.Bin(i), want.Bin(i))
		}
	}
	return ""
}

// Property: over seeded multi-process sample streams, a series matches a
// reference that keeps the aggregate and every process's histogram apart.
// While one process has reported, its histogram is the aggregate itself;
// once a second reports, each process's histogram equals one fed only that
// process's samples, bit for bit, and later samples do not leak between
// them. The split can fall mid-batch.
func TestOneProcessSeriesSharesTheAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		v := datasource.NewView()
		v.NumBins, v.BinWidth = []int{7, 16, 100}[trial%3], sim.Duration(1+rng.Intn(20))*sim.Millisecond
		s, _ := v.RegisterSeries("m", resource.WholeProgram())
		agg, ref := metric.NewHistogram(v.NumBins, v.BinWidth), map[string]*metric.Histogram{}
		procs := []string{"p1", "p0", "p2"}[:1+rng.Intn(3)]
		solo := rng.Intn(100) // samples the first process sends alone
		now := 0.0
		for sent := 0; sent < 400; {
			batch := make([]datasource.Sample, 1+rng.Intn(5))
			for i := range batch {
				p := procs[0]
				if sent >= solo {
					p = procs[rng.Intn(len(procs))]
				}
				now += float64(v.BinWidth) * rng.Float64() * 3
				d := rng.NormFloat64() * 10
				if rng.Intn(4) == 0 {
					d = 0
				}
				batch[i] = datasource.Sample{Metric: "m", Proc: p, Time: sim.Time(now), Delta: d}
				agg.Add(batch[i].Time, d)
				if ref[p] == nil {
					ref[p] = metric.NewHistogram(v.NumBins, v.BinWidth)
				}
				ref[p].Add(batch[i].Time, d)
				sent++
			}
			v.ApplySamples(batch)
			if d := histDiff(s.Histogram(), agg, v.NumBins); d != "" {
				t.Fatalf("trial %d after %d samples: aggregate %s", trial, sent, d)
			}
			reported := s.Procs()
			if len(reported) != len(ref) {
				t.Fatalf("trial %d: series lists %v, reference %d processes", trial, reported, len(ref))
			}
			for _, p := range reported {
				ph := s.ProcHistogram(p)
				if (ph == s.Histogram()) != (len(reported) == 1) {
					t.Fatalf("trial %d after %d samples, %d processes: %s's histogram is the aggregate: %v",
						trial, sent, len(reported), p, ph == s.Histogram())
				}
				if d := histDiff(ph, ref[p], v.NumBins); d != "" {
					t.Fatalf("trial %d after %d samples: %s's histogram %s", trial, sent, p, d)
				}
			}
		}
	}
}

// FuzzApplySamples is the differential check of the Series layout: a stream
// of registrations, drops and sample batches drives a View and a reference
// that keeps each registered pair's aggregate and a map of per-process
// histograms. After every step every registered series must list the
// reference's processes in sorted order, hold each process's histogram bit
// for bit, answer nil for a process that never reported, hand a lone
// reporter the aggregate itself, and agree on the aggregate. Processes
// arrive in any order, repeat, and may be unknown to the View's process
// table (so the presized slices must still grow); a dropped and
// re-registered pair starts empty.
func FuzzApplySamples(f *testing.F) {
	f.Add([]byte{0, 2, 17, 33, 49, 65, 2, 1, 3, 5, 2, 0, 0, 4, 99, 2, 255, 12})
	f.Add([]byte{3, 0, 6, 5, 0, 1, 2, 3, 4, 5, 11, 7, 12, 1, 2, 40, 41, 42, 43, 44, 45})
	f.Add([]byte{1, 1, 9, 200, 201, 202, 203, 204, 205, 206, 207, 208, 210, 5, 1, 1, 9, 8, 7})
	f.Fuzz(func(t *testing.T, data []byte) { runFuzzBody(t, data) })
}

func runFuzzBody(t *testing.T, data []byte) {
	procs := []string{"p3", "p10", "p1", "q", "p0", "a", "p2"}
	pairs := []datasource.Pair{
		{Metric: "m", Focus: resource.WholeProgram()},
		{Metric: "m", Focus: resource.Focus{MachinePath: "/Machine/node0"}},
		{Metric: "n", Focus: resource.Focus{}},
	}
	{
		if len(data) < 2 || len(data) > 1024 { // every step checks everything
			return
		}
		v := datasource.NewView()
		v.NumBins, v.BinWidth = 2+int(data[0]%9), sim.Duration(1+data[0]/9)*sim.Millisecond
		for _, p := range procs[:data[1]%uint8(len(procs)+1)] {
			v.ApplyUpdate(datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/" + p})
		}
		type refSeries struct {
			agg   *metric.Histogram
			procs map[string]*metric.Histogram
		}
		ref := map[datasource.Pair]*refSeries{}
		var now sim.Time
		for data = data[2:]; len(data) > 0; {
			op, pr, count := data[0]>>6, pairs[int(data[0]>>4&3)%len(pairs)], 1+int(data[0]&15)
			data = data[1:]
			switch op {
			case 0: // register
				if _, ok := ref[pr.Canon()]; !ok {
					ref[pr.Canon()] = &refSeries{metric.NewHistogram(v.NumBins, v.BinWidth), map[string]*metric.Histogram{}}
				}
				v.RegisterSeries(pr.Metric, pr.Focus)
			case 1: // drop
				delete(ref, pr.Canon())
				v.DropSeries(pr.Metric, pr.Focus)
			default: // a batch of up to 16 samples, one byte each
				n := min(len(data), count)
				var batch []datasource.Sample
				for _, b := range data[:n] {
					sp := pairs[int(b>>6)%len(pairs)]
					now += sim.Time(b&7) * sim.Time(v.BinWidth) / 2
					sm := datasource.Sample{Metric: sp.Metric, Focus: sp.Focus, Proc: procs[int(b>>3&7)%len(procs)],
						Time: now, Delta: float64(int(b) - 100)}
					batch = append(batch, sm)
					if rs := ref[sp.Canon()]; rs != nil {
						rs.agg.Add(sm.Time, sm.Delta)
						if rs.procs[sm.Proc] == nil {
							rs.procs[sm.Proc] = metric.NewHistogram(v.NumBins, v.BinWidth)
						}
						rs.procs[sm.Proc].Add(sm.Time, sm.Delta)
					}
				}
				data = data[n:]
				v.ApplySamples(batch)
			}
			for _, pr := range pairs {
				s, rs := v.Series(pr.Metric, pr.Focus), ref[pr.Canon()]
				if (s == nil) != (rs == nil) {
					t.Fatalf("%v: series registered %v, reference %v", pr, s != nil, rs != nil)
				}
				if s == nil {
					continue
				}
				if d := histDiff(s.Histogram(), rs.agg, v.NumBins); d != "" {
					t.Fatalf("%v: aggregate %s", pr, d)
				}
				var want []string
				for p := range rs.procs {
					want = append(want, p)
				}
				slices.Sort(want)
				if !slices.Equal(s.Procs(), want) {
					t.Fatalf("%v: Procs() = %v, want %v", pr, s.Procs(), want)
				}
				for _, p := range procs {
					ph := s.ProcHistogram(p)
					if rs.procs[p] == nil {
						if ph != nil {
							t.Fatalf("%v: %s never reported, ProcHistogram = %v", pr, p, ph)
						}
						continue
					}
					if (ph == s.Histogram()) != (len(want) == 1) {
						t.Fatalf("%v: %s's histogram is the aggregate: %v with %d processes", pr, p, ph == s.Histogram(), len(want))
					}
					if d := histDiff(ph, rs.procs[p], v.NumBins); d != "" {
						t.Fatalf("%v: %s's histogram %s", pr, p, d)
					}
				}
			}
		}
	}
}

// A series sizes its process lists once, from the View's process table: a
// series that reaches P processes costs a fixed number of objects beyond its
// P histograms (the lone reporter's is the aggregate), whatever P is. The
// first samples arrive in reverse name order, so every one is inserted in
// front.
func TestSeriesAllocationBudget(t *testing.T) {
	const fixed = 4 // the Series, its aggregate, the name and histogram lists
	for _, p := range []int{1, 2, 3, 8, 33, 100} {
		v := datasource.NewView()
		batch := make([]datasource.Sample, p)
		for i := range batch {
			name := fmt.Sprintf("p%03d", p-1-i)
			v.ApplyUpdate(datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/" + name})
			batch[i] = datasource.Sample{Metric: "m", Proc: name}
		}
		v.RegisterSeries("m", resource.WholeProgram()) // the registry's map entry
		allocs := testing.AllocsPerRun(10, func() {
			v.DropSeries("m", resource.WholeProgram())
			v.RegisterSeries("m", resource.WholeProgram())
			v.ApplySamples(batch)
		})
		hists := p
		if p == 1 {
			hists = 0
		}
		if got := int(allocs) - hists; got != fixed {
			t.Errorf("a series reaching %d processes: %v allocs, want %d beyond its %d histograms", p, allocs, fixed, hists)
		}
		if s := v.Series("m", resource.WholeProgram()); len(s.Procs()) != p || s.Procs()[0] != "p000" {
			t.Fatalf("series lists %d processes from %v", len(s.Procs()), s.Procs()[:1])
		}
	}
}
