package core

import (
	"errors"
	"fmt"
	"strings"

	"pperf/internal/cluster"
	"pperf/internal/consultant"
	"pperf/internal/daemon"
	"pperf/internal/mdl"
	"pperf/internal/mpi"
	"pperf/internal/sim"
)

// OptionsFromPCL builds the session options a parsed PCL file configures:
// the named daemon definition's mpi_implementation attribute (the §4.1
// extension) and, when the file defines metrics, constraints or resource
// lists, the file's text as the session's user MDL, so a compile error names
// the file's line. Everything else (cluster size, seed) is the caller's.
func OptionsFromPCL(f *mdl.File, daemonName string) (Options, error) {
	d := f.Daemon(daemonName)
	if d == nil {
		return Options{}, fmt.Errorf("core: PCL has no daemon %q", daemonName)
	}
	if !d.HasImpl {
		return Options{}, fmt.Errorf("core: daemon %q has no mpi_implementation attribute (required on non-shared filesystems, §4.1)", daemonName)
	}
	o := Options{Impl: d.Impl}
	if len(f.ResourceLists)+len(f.Constraints)+len(f.Metrics) > 0 {
		o.UserMDL = f.Source
	}
	return o, nil
}

// ConsultantConfigFromPCL applies the PCL tunable constants the paper
// adjusts (§5.1.6 lowers PC_CPUThreshold to 0.2) over the defaults. A
// threshold outside (0, 1], or an evaluation interval shorter than the
// sampling interval of a PCL session's daemons (the default's), which no
// sample could feed, is an error naming the tunable, its value and its line
// in the file.
func ConsultantConfigFromPCL(f *mdl.File) (consultant.Config, error) {
	c := consultant.DefaultConfig()
	refuse := func(t *mdl.TunableDecl, want string) error {
		return fmt.Errorf("pcl:%d: tunable %q %v: %s", t.Line, t.Name, t.Value, want)
	}
	for _, th := range []struct {
		name string
		dst  *float64
	}{
		{"PC_CPUThreshold", &c.CPUThreshold}, {"PC_SyncThreshold", &c.SyncThreshold}, {"PC_IOThreshold", &c.IOThreshold},
	} {
		if t := f.Tunable(th.name); t != nil {
			if err := CheckThreshold(t.Value); err != nil {
				return c, refuse(t, err.Error())
			}
			*th.dst = t.Value
		}
	}
	if t := f.Tunable("PC_EvalIntervalMS"); t != nil {
		c.EvalInterval = sim.Duration(t.Value * float64(sim.Millisecond))
		if sample := daemon.DefaultConfig().SampleInterval; !(c.EvalInterval >= sample) {
			return c, refuse(t, fmt.Sprintf("the evaluation interval must be positive and at least the daemons' %v sampling interval", sample))
		}
	}
	return c, nil
}

// CheckThreshold is the one range rule for a Consultant threshold, whether a
// PCL tunable or a `pperf -what-if-*` flag sets it.
func CheckThreshold(v float64) error {
	if v > 0 && v <= 1 {
		return nil
	}
	return errors.New("a threshold is a fraction of run time in (0, 1]")
}

// LaunchMpirun launches a registered program from an mpirun command line,
// parsed with the launcher syntax of the session's MPI implementation: LAM's
// -np/N/C/nR/cR placement notation, or MPICH's -np/-m/-wdir (§4.1). Machine
// files named by -m are looked up in the world's in-memory FS.
func (s *Session) LaunchMpirun(commandLine string) error {
	argv := strings.Fields(commandLine)
	if len(argv) > 0 && argv[0] == "mpirun" {
		argv = argv[1:]
	}
	var plan *cluster.LaunchPlan
	var err error
	switch s.World.Impl.Kind {
	case mpi.MPICH, mpi.MPICH2:
		readFile := func(name string) (string, error) {
			if text, ok := s.World.FS[name]; ok {
				return text, nil
			}
			return "", fmt.Errorf("no machine file %q in session FS", name)
		}
		_, plan, err = cluster.ParseMPICHMpirun(s.Spec, argv, readFile)
		if err != nil {
			return err
		}
		// The session's cluster stays authoritative: remap machine-file
		// node indices into its bounds.
		for i := range plan.Placements {
			plan.Placements[i].Node %= s.Spec.NumNodes()
		}
	default:
		plan, err = cluster.ParseLAMMpirun(s.Spec, argv)
		if err != nil {
			return err
		}
	}
	return s.LaunchPlacements(plan.Program, plan.Placements, plan.Args)
}
