package cluster

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pperf/internal/sim"
)

func nodesOf(lp *LaunchPlan) []int {
	var out []int
	for _, p := range lp.Placements {
		out = append(out, p.Node)
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParseBootSchema(t *testing.T) {
	s, err := ParseBootSchema(`
# Wyeast cluster
node0 cpu=2
node1 cpu=2
node2 cpu=2  # trailing comment
node3
`)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 4 || s.NumCPUs() != 7 {
		t.Errorf("nodes=%d cpus=%d, want 4/7", s.NumNodes(), s.NumCPUs())
	}
	if s.Nodes[3].CPUs != 1 {
		t.Errorf("node3 cpus = %d, want default 1", s.Nodes[3].CPUs)
	}
}

func TestParseBootSchemaErrors(t *testing.T) {
	for _, bad := range []string{"", "node0 cpu=x", "node0 cpu=0", "node0 foo=1", "node0 junk"} {
		if _, err := ParseBootSchema(bad); err == nil {
			t.Errorf("ParseBootSchema(%q) should fail", bad)
		}
	}
}

func TestParseMachineFile(t *testing.T) {
	s, err := ParseMachineFile("host1:2\nhost2\n# c\nhost3:4\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 3 || s.NumCPUs() != 7 {
		t.Errorf("nodes=%d cpus=%d, want 3/7", s.NumNodes(), s.NumCPUs())
	}
	if _, err := ParseMachineFile("h:0"); err == nil {
		t.Error("cpu count 0 should fail")
	}
	if _, err := ParseMachineFile("# only comments\n"); err == nil {
		t.Error("empty machine file should fail")
	}
}

func TestLAMMpirunNp(t *testing.T) {
	spec := DefaultSpec(3, 2)
	lp, err := ParseLAMMpirun(spec, []string{"-np", "4", "prog", "arg1"})
	if err != nil {
		t.Fatal(err)
	}
	// first 4 processors: node0 has cpus 0,1; node1 has 2,3
	if !eqInts(nodesOf(lp), []int{0, 0, 1, 1}) {
		t.Errorf("placements = %v", nodesOf(lp))
	}
	if lp.Program != "prog" || len(lp.Args) != 1 || lp.Args[0] != "arg1" {
		t.Errorf("program parse: %q %v", lp.Program, lp.Args)
	}
}

func TestLAMMpirunNodeSpecN(t *testing.T) {
	lp, err := ParseLAMMpirun(DefaultSpec(3, 2), []string{"N", "prog"})
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(nodesOf(lp), []int{0, 1, 2}) {
		t.Errorf("placements = %v", nodesOf(lp))
	}
}

func TestLAMMpirunNodeRange(t *testing.T) {
	// The paper's example: n0-2,4 starts processes on nodes 0,1,2,4.
	lp, err := ParseLAMMpirun(DefaultSpec(5, 1), []string{"n0-2,4", "prog"})
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(nodesOf(lp), []int{0, 1, 2, 4}) {
		t.Errorf("placements = %v, want [0 1 2 4]", nodesOf(lp))
	}
}

func TestLAMMpirunProcessorSpecC(t *testing.T) {
	lp, err := ParseLAMMpirun(DefaultSpec(2, 2), []string{"C", "prog"})
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(nodesOf(lp), []int{0, 0, 1, 1}) {
		t.Errorf("placements = %v", nodesOf(lp))
	}
}

func TestLAMMpirunProcessorRange(t *testing.T) {
	lp, err := ParseLAMMpirun(DefaultSpec(3, 2), []string{"c1-2,5", "prog"})
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(nodesOf(lp), []int{0, 1, 2}) {
		t.Errorf("placements = %v, want [0 1 2]", nodesOf(lp))
	}
}

func TestLAMMpirunMixedSpecs(t *testing.T) {
	// Mixture of node and processor specifications on one command line.
	lp, err := ParseLAMMpirun(DefaultSpec(3, 2), []string{"n0", "c4-5", "prog"})
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(nodesOf(lp), []int{0, 2, 2}) {
		t.Errorf("placements = %v, want [0 2 2]", nodesOf(lp))
	}
}

func TestLAMMpirunErrors(t *testing.T) {
	spec := DefaultSpec(2, 1)
	cases := [][]string{
		{"-np", "9", "prog"}, // too many
		{"-np", "x", "prog"}, // bad count
		{"-np", "1"},         // no program
		{"n0-5", "prog"},     // node out of range
		{"c7", "prog"},       // cpu out of range
		{"n2-1", "prog"},     // inverted range
		{"-bogus", "prog"},   // unknown flag
		{"prog"},             // no process spec
		{"n0,abc", "prog"},   // malformed list is not a range list → treated as program, then spec missing... ensure error
	}
	for _, argv := range cases {
		if _, err := ParseLAMMpirun(spec, argv); err == nil {
			t.Errorf("ParseLAMMpirun(%v) should fail", argv)
		}
	}
}

func TestMPICHMpirun(t *testing.T) {
	files := map[string]string{"machines": "hostA:2\nhostB:2\n"}
	read := func(name string) (string, error) {
		if s, ok := files[name]; ok {
			return s, nil
		}
		return "", fmt.Errorf("no such file %q", name)
	}
	spec, lp, err := ParseMPICHMpirun(DefaultSpec(1, 1),
		[]string{"-np", "5", "-m", "machines", "-wdir", "/tmp/w", "prog", "x"}, read)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes[0].Name != "hostA" {
		t.Errorf("machine file did not replace spec: %+v", spec.Nodes)
	}
	if lp.WorkDir != "/tmp/w" {
		t.Errorf("wdir = %q", lp.WorkDir)
	}
	// 4 CPUs, 5 procs → wraps around.
	if !eqInts(nodesOf(lp), []int{0, 0, 1, 1, 0}) {
		t.Errorf("placements = %v", nodesOf(lp))
	}
}

func TestMPICHMpirunErrors(t *testing.T) {
	spec := DefaultSpec(2, 1)
	read := func(string) (string, error) { return "", fmt.Errorf("nope") }
	cases := [][]string{
		{"prog"},                     // no -np
		{"-np", "2"},                 // no program
		{"-np", "0", "prog"},         // bad count
		{"-m", "f", "-np", "1", "p"}, // unreadable machine file
		{"-wdir"},                    // missing value
		{"-zz", "prog"},              // unknown option
	}
	for _, argv := range cases {
		if _, _, err := ParseMPICHMpirun(spec, argv, read); err == nil {
			t.Errorf("ParseMPICHMpirun(%v) should fail", argv)
		}
	}
}

func TestCPUToNode(t *testing.T) {
	s := &Spec{Nodes: []Node{{Name: "a", CPUs: 2}, {Name: "b", CPUs: 1}, {Name: "c", CPUs: 3}}}
	want := []int{0, 0, 1, 2, 2, 2}
	for cpu, node := range want {
		if got := s.CPUToNode(cpu); got != node {
			t.Errorf("CPUToNode(%d) = %d, want %d", cpu, got, node)
		}
	}
	if s.CPUToNode(6) != -1 || s.CPUToNode(100) != -1 {
		t.Error("out-of-range CPU should map to -1")
	}
}

func TestCostModelMsgTime(t *testing.T) {
	cm := &CostModel{
		IntraNodeLatency: 1 * sim.Microsecond, IntraNodeBandwidth: 1e9,
		InterNodeLatency: 50 * sim.Microsecond, InterNodeBandwidth: 1e8,
	}
	intra := cm.MsgTime(0, 0, 1000)
	inter := cm.MsgTime(0, 1, 1000)
	if intra >= inter {
		t.Errorf("intra (%v) should be cheaper than inter (%v)", intra, inter)
	}
	if got, want := intra, 1*sim.Microsecond+1*sim.Microsecond; got != want {
		t.Errorf("intra = %v, want %v", got, want)
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	s := DefaultSpec(3, 2)
	s2, err := ParseBootSchema(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumNodes() != 3 || s2.NumCPUs() != 6 {
		t.Errorf("round trip lost nodes: %d/%d", s2.NumNodes(), s2.NumCPUs())
	}
}

// Property: for any valid -np n on any spec, placements are dense ranks
// 0..n-1, each on an in-range node, in non-decreasing node order.
func TestPropertyNpPlacement(t *testing.T) {
	f := func(nn, cc, np uint8) bool {
		nNodes := int(nn%6) + 1
		cpus := int(cc%4) + 1
		spec := DefaultSpec(nNodes, cpus)
		n := int(np%uint8(spec.NumCPUs())) + 1
		lp, err := ParseLAMMpirun(spec, []string{"-np", fmt.Sprint(n), "prog"})
		if err != nil {
			return false
		}
		if len(lp.Placements) != n {
			return false
		}
		prev := 0
		for i, p := range lp.Placements {
			if p.Rank != i || p.Node < 0 || p.Node >= nNodes || p.Node < prev {
				return false
			}
			prev = p.Node
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: range-list parsing accepts exactly what it generates.
func TestPropertyRangeList(t *testing.T) {
	f := func(ids []uint8) bool {
		if len(ids) == 0 {
			return true
		}
		parts := make([]string, len(ids))
		for i, v := range ids {
			parts[i] = fmt.Sprint(int(v % 16))
		}
		s := strings.Join(parts, ",")
		got, err := parseRangeList(s, 16, "node")
		if err != nil || len(got) != len(ids) {
			return false
		}
		for i, v := range ids {
			if got[i] != int(v%16) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
