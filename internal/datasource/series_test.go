package datasource_test

import (
	"fmt"
	"math"
	"math/rand"
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
