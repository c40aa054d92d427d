package perfdb

// The sample codec lives beside the event schema (session/pack.go); these
// tests pin what the archive format depends on it for: every batch
// round-trips bit for bit, and corrupt blobs are errors.

import (
	"math"
	"math/rand"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// randomBatch generates a sample batch exercising the codec's paths:
// repeated and fresh dictionary strings, forward and backward time
// steps, negative and special float values.
func randomBatch(rng *rand.Rand, n int) []datasource.Sample {
	metrics := []string{"sync_wait", "io_wait", "cpu", "msg_bytes_sent", ""}
	procs := []string{"app{0}", "app{1}", "app{2}", ""}
	paths := []string{"/Code", "/Code/a.c/f", "/Code/b.c/g", ""}
	specials := []float64{0, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, -math.MaxFloat64}
	batch := make([]datasource.Sample, n)
	t := sim.Time(0)
	for i := range batch {
		t += sim.Time(rng.Intn(2_000_000) - 500_000) // deltas go backward sometimes
		d := rng.NormFloat64() * 1000
		v := rng.NormFloat64() * 1e9
		if rng.Intn(8) == 0 {
			d = specials[rng.Intn(len(specials))]
		}
		if rng.Intn(8) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		batch[i] = datasource.Sample{
			Metric: metrics[rng.Intn(len(metrics))],
			Focus: resource.Focus{
				CodePath:    paths[rng.Intn(len(paths))],
				MachinePath: paths[rng.Intn(len(paths))],
				SyncPath:    paths[rng.Intn(len(paths))],
			},
			Proc:  procs[rng.Intn(len(procs))],
			Time:  t,
			Delta: d,
			Value: v,
		}
	}
	return batch
}

// packSamples packs one batch through a fresh packer, unpackSamples decodes
// one through a fresh string table.
func packSamples(batch []datasource.Sample) []byte {
	return new(session.Packer).PackSamples(nil, batch)
}
func unpackSamples(data []byte) ([]datasource.Sample, error) {
	return new(session.Unpacker).UnpackSamples(data)
}

// sampleEqual compares samples treating NaN as equal to NaN — the codec
// must round-trip the exact bits, which reflect.DeepEqual on floats
// rejects for NaN.
func sampleEqual(a, b datasource.Sample) bool {
	if a.Metric != b.Metric || a.Focus != b.Focus || a.Proc != b.Proc || a.Time != b.Time {
		return false
	}
	return math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

func TestPackSamplesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		batch := randomBatch(rng, rng.Intn(64))
		got, err := unpackSamples(packSamples(batch))
		if err != nil {
			t.Fatalf("trial %d: unpack: %v", trial, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("trial %d: %d samples round-tripped to %d", trial, len(batch), len(got))
		}
		for i := range batch {
			if !sampleEqual(batch[i], got[i]) {
				t.Fatalf("trial %d sample %d: %+v round-tripped to %+v", trial, i, batch[i], got[i])
			}
		}
	}
}

func TestPackSamplesEmpty(t *testing.T) {
	got, err := unpackSamples(packSamples(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch round-tripped to %d samples", len(got))
	}
}

func TestPackSamplesCompactsRepetition(t *testing.T) {
	// 64 samples over 4 distinct strings must pack far below gob's
	// per-sample struct overhead — the point of the dictionary.
	rng := rand.New(rand.NewSource(1))
	batch := randomBatch(rng, 64)
	packed := packSamples(batch)
	if len(packed) > 64*40 {
		t.Errorf("64 samples packed to %d bytes; dictionary not effective", len(packed))
	}
}

func TestUnpackSamplesRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valid := packSamples(randomBatch(rng, 32))
	// Truncations at every length must error or return fewer samples —
	// never panic. (Most lengths error; a prefix that happens to parse is
	// impossible because the trailing-bytes check requires exact length.)
	for n := 0; n < len(valid); n++ {
		if _, err := unpackSamples(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// Flipped bytes must never panic (they may decode to different
	// samples when the flip lands in float payload bits).
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		unpackSamples(mut)
	}
}
