package pperfmark

// Cross-checks between the trace subsystem's critical-path analysis and the
// Performance Consultant: both observe the same run, so the function and
// process the path blames must appear in the Consultant's findings.

import (
	"testing"

	"pperf/internal/consultant"
	"pperf/internal/mpi"
	"pperf/internal/trace"
)

func runWithTrace(t *testing.T, name string, params Params) *Result {
	t.Helper()
	res, err := Run(name, RunOptions{Impl: mpi.LAM, Trace: &trace.Config{}, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil {
		t.Fatal("no timeline")
	}
	return res
}

func TestCriticalPathAgreesWithConsultantSmallMessages(t *testing.T) {
	res := runWithTrace(t, "small-messages", shortSmallMessages)
	cp := trace.Analyze(res.Timeline)
	if cp.Truncated {
		t.Error("walk hit the step cap")
	}
	fn, d := cp.Dominant()
	if fn != "MPI_Recv" && fn != "MPI_Send" {
		t.Fatalf("dominant function = %s (%v), want the p2p bottleneck", fn, d)
	}
	if !res.PC.HasFinding(consultant.HypSync, fn) {
		t.Errorf("critical path blames %s but the Consultant has no sync finding for it", fn)
	}
	proc, _ := cp.DominantResource()
	if !res.PC.HasFinding(consultant.HypSync, proc) {
		t.Errorf("critical path blames %s but the Consultant's sync findings never mention it", proc)
	}
}

func TestCriticalPathIntensiveServer(t *testing.T) {
	res := runWithTrace(t, "intensive-server", Params{})
	cp := trace.Analyze(res.Timeline)
	fn, d := cp.Dominant()
	switch fn {
	case "MPI_Recv":
		if !res.PC.HasFinding(consultant.HypSync, "MPI_Recv") {
			t.Error("path blames MPI_Recv; Consultant's sync findings do not")
		}
	case "compute":
		if !res.PC.TopLevelTrue(consultant.HypCPU) {
			t.Error("path blames compute; Consultant's CPU hypothesis is false")
		}
	default:
		t.Errorf("dominant function = %s (%v), want MPI_Recv or compute", fn, d)
	}
}
