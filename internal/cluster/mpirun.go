package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// LaunchPlan is the result of parsing an mpirun command line: where each MPI
// process starts, plus launcher options relevant to the tool.
type LaunchPlan struct {
	Placements []Placement
	// WorkDir is the working directory requested with -wdir (MPICH), empty
	// if unset.
	WorkDir string
	// Program and Args are the application command.
	Program string
	Args    []string
}

// ParseLAMMpirun implements the three process-count notations the paper adds
// support for (§4.1.2):
//
//  1. direct CPU count:       mpirun -np n prog      → first n processors
//  2. node specification:     mpirun N prog          → one per node
//     mpirun n0-2,4 prog     → one on each listed node
//  3. processor spec:         mpirun C prog          → one per processor
//     mpirun c0-2,5 prog     → one on each listed processor
//
// Node and processor specifications may be mixed on one command line; the
// processes are ranked in the order the specifications appear.
func ParseLAMMpirun(spec *Spec, argv []string) (*LaunchPlan, error) {
	lp := &LaunchPlan{}
	rank := 0
	addNode := func(node int) error {
		if node < 0 || node >= spec.NumNodes() {
			return fmt.Errorf("mpirun: node %d out of range [0,%d)", node, spec.NumNodes())
		}
		lp.Placements = append(lp.Placements, Placement{Rank: rank, Node: node})
		rank++
		return nil
	}
	addCPU := func(cpu int) error {
		node := spec.CPUToNode(cpu)
		if node < 0 {
			return fmt.Errorf("mpirun: processor %d out of range [0,%d)", cpu, spec.NumCPUs())
		}
		return addNode(node)
	}

	i := 0
	for ; i < len(argv); i++ {
		arg := argv[i]
		switch {
		case arg == "-np":
			if i+1 >= len(argv) {
				return nil, fmt.Errorf("mpirun: -np requires a count")
			}
			n, err := strconv.Atoi(argv[i+1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("mpirun: bad -np count %q", argv[i+1])
			}
			if n > spec.NumCPUs() {
				return nil, fmt.Errorf("mpirun: -np %d exceeds %d processors", n, spec.NumCPUs())
			}
			for cpu := 0; cpu < n; cpu++ {
				if err := addCPU(cpu); err != nil {
					return nil, err
				}
			}
			i++
		case arg == "N":
			for node := range spec.Nodes {
				if err := addNode(node); err != nil {
					return nil, err
				}
			}
		case arg == "C":
			for cpu := 0; cpu < spec.NumCPUs(); cpu++ {
				if err := addCPU(cpu); err != nil {
					return nil, err
				}
			}
		case len(arg) > 1 && arg[0] == 'n' && isRangeList(arg[1:]):
			ids, err := parseRangeList(arg[1:], spec.NumNodes(), "node")
			if err != nil {
				return nil, err
			}
			for _, node := range ids {
				if err := addNode(node); err != nil {
					return nil, err
				}
			}
		case len(arg) > 1 && arg[0] == 'c' && isRangeList(arg[1:]):
			ids, err := parseRangeList(arg[1:], spec.NumCPUs(), "processor")
			if err != nil {
				return nil, err
			}
			for _, cpu := range ids {
				if err := addCPU(cpu); err != nil {
					return nil, err
				}
			}
		case strings.HasPrefix(arg, "-"):
			return nil, fmt.Errorf("mpirun: unknown option %q", arg)
		default:
			// First non-option, non-specification argument is the program.
			lp.Program = arg
			lp.Args = argv[i+1:]
			i = len(argv)
		}
	}
	if lp.Program == "" {
		return nil, fmt.Errorf("mpirun: no program given")
	}
	if len(lp.Placements) == 0 {
		return nil, fmt.Errorf("mpirun: no process specification (-np, N, C, nR or cR)")
	}
	return lp, nil
}

// isRangeList reports whether s looks like a LAM R[,R]* range list (digits,
// commas and dashes only, starting with a digit).
func isRangeList(s string) bool {
	if s == "" || s[0] < '0' || s[0] > '9' {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && c != ',' && c != '-' {
			return false
		}
	}
	return true
}

// parseRangeList parses LAM's R[,R]* notation, where each R is either a
// single index or a lo-hi range, all within [0, limit).
func parseRangeList(s string, limit int, kind string) ([]int, error) {
	var ids []int
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("mpirun: bad %s range %q", kind, part)
		}
		b := a
		if isRange {
			b, err = strconv.Atoi(hi)
			if err != nil || b < a {
				return nil, fmt.Errorf("mpirun: bad %s range %q", kind, part)
			}
		}
		for v := a; v <= b; v++ {
			if v < 0 || v >= limit {
				return nil, fmt.Errorf("mpirun: %s %d out of range [0,%d)", kind, v, limit)
			}
			ids = append(ids, v)
		}
	}
	return ids, nil
}

// ParseMPICHMpirun parses an MPICH-style mpirun command line:
//
//	mpirun -np n [-m machinefile] [-wdir dir] prog args...
//
// The -m and -wdir arguments are the ones §4.1.1 adds support for. When -m
// is given, its parsed contents replace spec; processes fill each node's CPU
// slots in order, wrapping around if n exceeds the total.
func ParseMPICHMpirun(spec *Spec, argv []string, readFile func(string) (string, error)) (*Spec, *LaunchPlan, error) {
	lp := &LaunchPlan{}
	n := 0
	i := 0
	for ; i < len(argv); i++ {
		arg := argv[i]
		switch arg {
		case "-np":
			if i+1 >= len(argv) {
				return nil, nil, fmt.Errorf("mpirun: -np requires a count")
			}
			v, err := strconv.Atoi(argv[i+1])
			if err != nil || v < 1 {
				return nil, nil, fmt.Errorf("mpirun: bad -np count %q", argv[i+1])
			}
			n = v
			i++
		case "-m", "-machinefile":
			if i+1 >= len(argv) {
				return nil, nil, fmt.Errorf("mpirun: %s requires a file", arg)
			}
			if readFile == nil {
				return nil, nil, fmt.Errorf("mpirun: no machine-file reader supplied")
			}
			text, err := readFile(argv[i+1])
			if err != nil {
				return nil, nil, fmt.Errorf("mpirun: reading machine file: %w", err)
			}
			spec, err = ParseMachineFile(text)
			if err != nil {
				return nil, nil, err
			}
			i++
		case "-wdir":
			if i+1 >= len(argv) {
				return nil, nil, fmt.Errorf("mpirun: -wdir requires a directory")
			}
			lp.WorkDir = argv[i+1]
			i++
		default:
			if strings.HasPrefix(arg, "-") {
				return nil, nil, fmt.Errorf("mpirun: unknown option %q", arg)
			}
			lp.Program = arg
			lp.Args = argv[i+1:]
			i = len(argv)
		}
	}
	if lp.Program == "" {
		return nil, nil, fmt.Errorf("mpirun: no program given")
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("mpirun: -np is required")
	}
	// Fill CPU slots node by node, wrapping if oversubscribed.
	total := spec.NumCPUs()
	for rank := 0; rank < n; rank++ {
		lp.Placements = append(lp.Placements, Placement{Rank: rank, Node: spec.CPUToNode(rank % total)})
	}
	return spec, lp, nil
}
