package presta

import (
	"strings"
	"testing"

	"pperf/internal/mpi"
)

var quickCfg = Config{Bytes: 1024, OpsPerEpoch: 200, Epochs: 20}

func TestRunOnceCountsAgree(t *testing.T) {
	rep, tm, err := RunOnce(mpi.LAM, quickCfg, UniPut, 42)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := float64(quickCfg.OpsPerEpoch * quickCfg.Epochs)
	if float64(rep.TotalOps) != wantOps {
		t.Errorf("presta ops = %d, want %v", rep.TotalOps, wantOps)
	}
	// The tool's raw histogram total counts every operation exactly.
	if tm.Ops != wantOps {
		t.Errorf("tool ops = %v, want %v", tm.Ops, wantOps)
	}
	if tm.Bytes != wantOps*float64(quickCfg.Bytes) {
		t.Errorf("tool bytes = %v", tm.Bytes)
	}
	if rep.Throughput() <= 0 || tm.Throughput <= 0 {
		t.Errorf("throughputs: presta %v tool %v", rep.Throughput(), tm.Throughput)
	}
}

func TestBidirectionalDoublesTraffic(t *testing.T) {
	uni, _, err := RunOnce(mpi.LAM, quickCfg, UniPut, 1)
	if err != nil {
		t.Fatal(err)
	}
	bi, tm, err := RunOnce(mpi.LAM, quickCfg, BiPut, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bi.TotalOps != 2*uni.TotalOps {
		t.Errorf("bi ops = %d, want 2×%d", bi.TotalOps, uni.TotalOps)
	}
	if tm.Ops != float64(bi.TotalOps) {
		t.Errorf("tool sees %v ops, presta reports %d", tm.Ops, bi.TotalOps)
	}
}

func TestGetModes(t *testing.T) {
	rep, tm, err := RunOnce(mpi.MPICH2, quickCfg, UniGet, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps == 0 || tm.Ops != float64(rep.TotalOps) {
		t.Errorf("get ops: presta %d tool %v", rep.TotalOps, tm.Ops)
	}
}

func TestCompareProducesAllRows(t *testing.T) {
	cmp, err := Compare(mpi.LAM, Config{Bytes: 1024, OpsPerEpoch: 100, Epochs: 10}, UniPut, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OpsDiff == nil || cmp.ThroughputDiff == nil || cmp.PerOpDiff == nil {
		t.Fatal("missing paired results")
	}
	// Operation counts must match exactly: not statistically significant.
	if cmp.OpsDiff.Significant {
		t.Errorf("op counts should agree: %+v", cmp.OpsDiff)
	}
	out := cmp.Render()
	for _, want := range []string{"throughput", "per-op time", "unidirectional Put"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCompareNeedsRuns(t *testing.T) {
	if _, err := Compare(mpi.LAM, quickCfg, UniPut, 1); err == nil {
		t.Error("single run should be rejected")
	}
}

func TestEpochThroughputSamples(t *testing.T) {
	rep, _, err := RunOnce(mpi.LAM, quickCfg, UniPut, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Every epoch moved its bytes, in a positive time.
	if want := int64(quickCfg.Epochs * quickCfg.OpsPerEpoch * quickCfg.Bytes); rep.TotalBytes != want || rep.Elapsed <= 0 {
		t.Fatalf("total bytes = %d in %v, want %d in a positive time", rep.TotalBytes, rep.Elapsed, want)
	}
}
