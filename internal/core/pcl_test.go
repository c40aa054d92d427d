package core

import (
	"strings"
	"testing"

	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

const pclSrc = `
daemon pd_mpich {
    command "paradynd";
    flavor mpi;
    mpi_implementation "mpich";
}
tunable_constant {
    "PC_CPUThreshold" 0.2;
    "PC_EvalIntervalMS" 250;
}
mdl {
resourceList pcl_send is procedure { "MPI_Send", "PMPI_Send" };
metric pcl_sends {
    name "pcl_sends"; units ops; unitstype unnormalized;
    aggregateOperator sum; style EventCounter;
    base is counter {
        foreach func in pcl_send { append preinsn func.entry constrained (* pcl_sends++; *) }
    }
}
}
`

func TestSessionFromPCL(t *testing.T) {
	cfg, err := mdl.Parse(pclSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := OptionsFromPCL(cfg, "pd_mpich")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Impl != mpi.MPICH {
		t.Fatalf("impl = %v", opts.Impl)
	}
	opts.Nodes, opts.CPUsPerNode = 2, 2
	s := newTestSession(t, opts)
	s.Register("pp", pingPong(60, 5*sim.Millisecond))
	// The PCL-embedded metric is available.
	sr := s.MustEnable("pcl_sends", resource.WholeProgram())
	if err := s.Launch("pp", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sr.Total() != 60 {
		t.Errorf("pcl_sends = %v, want 60", sr.Total())
	}
	ccfg, err := ConsultantConfigFromPCL(cfg)
	if err != nil || ccfg.CPUThreshold != 0.2 || ccfg.EvalInterval != 250*sim.Millisecond {
		t.Errorf("consultant config = %+v, %v", ccfg, err)
	}
}

// A tunable out of range is refused with its name, value and line: a zero
// interval used to reach sim.Engine.Every and panic, one shorter than the
// daemons' 200 ms sampling interval evaluated without new data (at 1 ns, a
// billion times per second of run), a negative threshold made every
// hypothesis true.
func TestConsultantConfigFromPCLRefusesOutOfRangeTunables(t *testing.T) {
	for _, c := range []struct{ tunables, want string }{
		{`"PC_EvalIntervalMS" 0;`, `pcl:3: tunable "PC_EvalIntervalMS" 0: the evaluation interval must be positive`},
		{`"PC_EvalIntervalMS" -250;`, `pcl:3: tunable "PC_EvalIntervalMS" -250: the evaluation interval must be positive`},
		{`"PC_EvalIntervalMS" 0.0000001;`, `tunable "PC_EvalIntervalMS" 1e-07: the evaluation interval must be positive`},
		{`"PC_CPUThreshold" -5;`, `pcl:3: tunable "PC_CPUThreshold" -5: a threshold is a fraction of run time in (0, 1]`},
		{`"PC_SyncThreshold" 0;`, `pcl:3: tunable "PC_SyncThreshold" 0: a threshold`},
		{`"PC_CPUThreshold" 0.2;
    "PC_IOThreshold" 1.5;`, `pcl:4: tunable "PC_IOThreshold" 1.5: a threshold`},
		{`"PC_CPUThreshold" 1; "PC_EvalIntervalMS" 0.5;`, `pcl:3: tunable "PC_EvalIntervalMS" 0.5: the evaluation interval must be positive and at least the daemons' 200ms sampling interval`},
		{`"PC_EvalIntervalMS" 199.9;`, `tunable "PC_EvalIntervalMS" 199.9: the evaluation interval must be positive`},
		{`"PC_CPUThreshold" 1; "PC_EvalIntervalMS" 200;`, ""},
	} {
		cfg, err := mdl.Parse("// tunables\ntunable_constant {\n    " + c.tunables + "\n}\n")
		if err != nil {
			t.Fatalf("%s: %v", c.tunables, err)
		}
		_, err = ConsultantConfigFromPCL(cfg)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.tunables, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want %q", c.tunables, err, c.want)
		}
	}
}

func TestOptionsFromPCLErrors(t *testing.T) {
	cfg, _ := mdl.Parse(`daemon d { command "x"; }`)
	if _, err := OptionsFromPCL(cfg, "missing"); err == nil {
		t.Error("missing daemon should error")
	}
	if _, err := OptionsFromPCL(cfg, "d"); err == nil ||
		!strings.Contains(err.Error(), "mpi_implementation") {
		t.Errorf("missing attribute should error, got %v", err)
	}
}

// A file with metric definitions is the session's user MDL itself, so an
// error in one names the file's line; a file without any leaves UserMDL
// empty, and the session the shared standard library.
func TestOptionsFromPCLUserMDLIsTheFile(t *testing.T) {
	broken := strings.Replace(pclSrc, "pcl_sends++;", "ghost++;", 1)
	cfg, err := mdl.Parse(broken)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := OptionsFromPCL(cfg, "pd_mpich")
	if err != nil || !strings.HasPrefix(opts.UserMDL, broken) {
		t.Fatalf("UserMDL = %q, %v; want the file's text", opts.UserMDL, err)
	}
	if _, err := NewSession(opts); err == nil || !strings.Contains(err.Error(), `mdl:17: metric pcl_sends: unknown counter "ghost"`) {
		t.Errorf("NewSession = %v; want the file's line 17", err)
	}
	cfg, _ = mdl.Parse(`daemon d { mpi_implementation "MPICH2"; } tunable_constant { "PC_CPUThreshold" 0.2; }`)
	if opts, err := OptionsFromPCL(cfg, "d"); err != nil || opts.UserMDL != "" || opts.Impl != mpi.MPICH2 {
		t.Errorf("options = %+v, %v; want MPICH2 and no user MDL", opts, err)
	}
}

func TestLaunchMpirunLAMNotation(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 4, CPUsPerNode: 1})
	nodes := map[int]bool{}
	s.Register("spread", func(r *mpi.Rank, _ []string) {
		nodes[r.Node()] = true
	})
	// The paper's n0-2,4 style notation, trimmed to this cluster.
	if err := s.LaunchMpirun("mpirun n0-1,3 spread"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !nodes[0] || !nodes[1] || !nodes[3] || nodes[2] {
		t.Errorf("placement nodes = %v, want 0,1,3", nodes)
	}
}

func TestLaunchMpirunMPICHMachineFile(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.MPICH, Nodes: 2, CPUsPerNode: 2})
	s.World.FS["machines"] = "hostA:2\nhostB:2\n"
	ranks := 0
	s.Register("mm", func(r *mpi.Rank, _ []string) { ranks++ })
	if err := s.LaunchMpirun("mpirun -np 3 -m machines -wdir /tmp mm"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ranks != 3 {
		t.Errorf("ranks = %d", ranks)
	}
}

func TestLaunchMpirunErrors(t *testing.T) {
	s := newTestSession(t, Options{Impl: mpi.LAM, Nodes: 2, CPUsPerNode: 1})
	if err := s.LaunchMpirun("mpirun -np 99 nothing"); err == nil {
		t.Error("oversubscribed -np should error")
	}
	if err := s.LaunchMpirun("mpirun -np 1 unregistered"); err == nil {
		t.Error("unregistered program should error")
	}
}
