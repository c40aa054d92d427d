package frontend

import (
	"strings"
	"testing"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

func sample(metric string, f resource.Focus, proc string, t sim.Time, delta float64) datasource.Sample {
	return datasource.Sample{Metric: metric, Focus: f, Proc: proc, Time: t, Delta: delta}
}

// The three daemon reports, as the events a transport carries.
func samples(batch ...datasource.Sample) session.Event {
	return session.Event{Kind: session.EvSamples, Samples: batch}
}
func update(u datasource.Update) session.Event {
	return session.Event{Kind: session.EvUpdate, Update: u}
}
func shard(sh trace.Shard) session.Event { return session.Event{Kind: session.EvShard, Shard: &sh} }

func TestSamplesAggregateAndPerProc(t *testing.T) {
	fe := New()
	f := resource.WholeProgram()
	// Register the series without daemons via the view (the daemon fan-out
	// of EnableMetric is irrelevant to ingest behaviour).
	fe.RegisterSeries("m", f)
	fe.Report(samples(
		sample("m", f, "p0", sim.Time(1*sim.Second), 5),
		sample("m", f, "p1", sim.Time(1*sim.Second), 3),
		sample("m", f, "p0", sim.Time(2*sim.Second), 2),
	))
	sr := fe.Series("m", f)
	if sr.Total() != 10 {
		t.Errorf("aggregate total = %v", sr.Total())
	}
	if sr.ProcHistogram("p0").Total() != 7 || sr.ProcHistogram("p1").Total() != 3 {
		t.Errorf("per-proc totals wrong")
	}
	if got := sr.Procs(); len(got) != 2 || got[0] != "p0" {
		t.Errorf("procs = %v", got)
	}
	if sr.LastSampleTime() != sim.Time(2*sim.Second) {
		t.Errorf("last sample = %v", sr.LastSampleTime())
	}
	// Samples for an unknown series are dropped harmlessly.
	fe.Report(samples(sample("ghost", f, "p0", 0, 1)))
}

func TestUpdatesBuildHierarchy(t *testing.T) {
	fe := New()
	fe.Report(update(datasource.Update{Kind: datasource.UpAddResource, Path: "/Machine/node0/p0", Time: 1}))
	fe.Report(update(datasource.Update{Kind: datasource.UpAddResource, Path: "/SyncObject/Window/0-1"}))
	fe.Report(update(datasource.Update{Kind: datasource.UpSetName, Path: "/SyncObject/Window/0-1", Display: "MyWin"}))
	fe.Report(update(datasource.Update{Kind: datasource.UpRetire, Path: "/SyncObject/Window/0-1"}))
	fe.Report(update(datasource.Update{Kind: datasource.UpCallEdge, Caller: "a", Callee: "b"}))
	fe.Report(update(datasource.Update{Kind: datasource.UpCallEdge, Caller: "a", Callee: "c"}))
	fe.Report(update(datasource.Update{Kind: datasource.UpProcessExit, Proc: "p0", Path: "/Machine/node0/p0", Time: 9}))

	n := fe.Hierarchy().FindPath("/SyncObject/Window/0-1")
	if n == nil || n.DisplayName() != "MyWin" || !n.Retired() {
		t.Errorf("window node: %+v", n)
	}
	if got := fe.Callees("a"); len(got) != 2 || got[0] != "b" {
		t.Errorf("callees = %v", got)
	}
	if !fe.IsCallee("b") || fe.IsCallee("a") {
		t.Error("callee classification wrong")
	}
	procs := fe.Processes()
	if len(procs) != 1 || !procs[0].Exited || procs[0].Node != "node0" {
		t.Errorf("procs = %+v", procs[0])
	}
	if fe.ProcessCount() != 1 {
		t.Error("process count wrong")
	}
	if !fe.Hierarchy().FindPath("/Machine/node0/p0").Retired() {
		t.Error("exited process should retire its machine node")
	}
}

func TestExportCSV(t *testing.T) {
	fe := New()
	f := resource.WholeProgram()
	fe.RegisterSeries("m", f)
	fe.Report(samples(
		sample("m", f, "p0", sim.Time(100*sim.Millisecond), 4),
		sample("m", f, "p1", sim.Time(300*sim.Millisecond), 6),
	))
	csv := fe.ExportCSV(fe.Series("m", f))
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "bin_start_s,all,p0,p1" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("csv:\n%s", csv)
	}
	if !strings.HasPrefix(lines[1], "0.000,4,4,0") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "0.200,6,0,6") {
		t.Errorf("row 2 = %q", lines[2])
	}
}
