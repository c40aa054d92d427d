package frontend_test

// Regression test for the partial-enable leak: EnableMetric must be
// all-or-nothing. When a daemon rejects the metric, the daemons already
// instrumented must be rolled back and the series unregistered, leaving no
// orphaned probes charging overhead.

import (
	"testing"

	"pperf/internal/cluster"
	"pperf/internal/daemon"
	"pperf/internal/frontend"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// limitedMDL defines a single metric, so a daemon built on it refuses every
// stdlib metric name.
const limitedMDL = `
resourceList send_only is procedure { "MPI_Send", "PMPI_Send" } flavor { mpi };
metric only_metric {
    name "only_metric";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    base is counter {
        foreach func in send_only {
            append preinsn func.entry constrained (* only_metric++; *)
        }
    }
}
`

func TestEnableMetricRollsBackPartialEnable(t *testing.T) {
	limited, err := mdl.CompileSource(limitedMDL)
	if err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine(13)
	spec := cluster.DefaultSpec(2, 1)
	w := mpi.NewWorld(eng, spec, mpi.NewImpl(mpi.LAM))
	fe := frontend.New()
	libs := []*mdl.Library{mdl.StdLib(), limited}
	var ds []*daemon.Daemon
	for node := range spec.Nodes {
		ds = append(ds, daemon.New(eng, node, spec.Nodes[node].Name, libs[node], fe, daemon.DefaultConfig()))
	}
	fe.SetDaemons(daemon.AttachAll(w, daemon.SpawnIntercept, ds...))
	w.Register("p", func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < 50; i++ {
			if r.Rank() == 0 {
				c.Send(r, nil, 1, mpi.Byte, 1, 0)
			} else {
				c.Recv(r, nil, 1, mpi.Byte, 0, 0)
			}
		}
	})
	if _, err := w.LaunchN("p", 2, nil); err != nil {
		t.Fatal(err)
	}

	focus := resource.WholeProgram()
	if _, err := fe.EnableMetric("msgs_sent", focus); err == nil {
		t.Fatal("enable should fail: node1's library lacks msgs_sent")
	}
	if fe.Series("msgs_sent", focus) != nil {
		t.Error("failed enable left the series registered")
	}

	for _, d := range ds {
		d.Start()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Daemon 0's Enable succeeded before daemon 1 refused; the rollback must
	// have removed its instrumentation, so no probe ever fires.
	if n := ds[0].Stats().ProbeExecs; n != 0 {
		t.Errorf("rolled-back instrumentation still fired %d probes", n)
	}
}
