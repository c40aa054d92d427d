package mdl

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"pperf/internal/mpi"
)

const sample = `
// The paper's §4.1 daemon definition with the new attribute.
daemon pd_lam {
    command "paradynd";
    flavor mpi;
    mpi_implementation "lam";
}
daemon pd_mpich {
    command "paradynd";
    flavor mpi;
    mpi_implementation "mpich";
}
process smallmsg {
    command "mpirun -np 6 small-messages";
    daemon pd_lam;
}
tunable_constant {
    "PC_CPUThreshold" 0.2;
    "PC_SyncThreshold" 0.25;
}
mdl {
resourceList pclfns is procedure { "MPI_Barrier", "PMPI_Barrier" };
metric pcl_barriers {
    name "pcl_barriers"; units ops; unitstype unnormalized;
    aggregateOperator sum; style EventCounter;
    base is counter {
        foreach func in pclfns { append preinsn func.entry constrained (* pcl_barriers++; *) }
    }
}
}
`

func TestParseSample(t *testing.T) {
	cfg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Daemons) != 2 {
		t.Fatalf("daemons = %d", len(cfg.Daemons))
	}
	d := cfg.Daemon("pd_lam")
	if d == nil || !d.HasImpl || d.Impl != mpi.LAM || d.Command != "paradynd" || d.Flavor != "mpi" || d.Line != 3 {
		t.Errorf("pd_lam = %+v", d)
	}
	if cfg.Daemon("pd_mpich").Impl != mpi.MPICH {
		t.Error("pd_mpich impl wrong")
	}
	if len(cfg.Processes) != 1 || cfg.Processes[0].Daemon != "pd_lam" || cfg.Processes[0].Line != 13 {
		t.Errorf("processes = %+v", cfg.Processes)
	}
	if !strings.Contains(cfg.Processes[0].Command, "-np 6") {
		t.Errorf("command = %q", cfg.Processes[0].Command)
	}
	if tu := cfg.Tunable("PC_CPUThreshold"); tu == nil || tu.Value != 0.2 || tu.Line != 18 {
		t.Errorf("tunable = %+v", tu)
	}
	if cfg.Tunable("PC_Missing") != nil {
		t.Error("an unset tunable was found")
	}
	if len(cfg.Metrics) != 1 || cfg.Metrics[0].ID != "pcl_barriers" || cfg.Metrics[0].Line != 23 {
		t.Errorf("embedded metric = %+v", cfg.Metrics)
	}
}

func TestParsePCLErrors(t *testing.T) {
	cases := []string{
		`daemon d { command "x" }`,                            // missing ;
		`daemon d { mpi_implementation "openmpi"; }`,          // unknown impl
		`daemon d { bogus "x"; }`,                             // unknown attribute
		`widget w { }`,                                        // unknown decl
		`tunable_constant { "x" abc; }`,                       // bad number
		`daemon d { command "unterminated }`,                  // unterminated string
		`mdl { { }`,                                           // unbalanced braces
		`daemon d { command "a"; } daemon d { command "b"; }`, // duplicate
		`process p { daemon; }`,                               // missing ident... actually daemon then ; → ident fails
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("should fail: %s", src)
		}
	}
}

func TestEmptyAndComments(t *testing.T) {
	cfg, err := Parse("// nothing but comments\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Daemons) != 0 || len(cfg.Processes) != 0 {
		t.Error("empty config should be empty")
	}
}

func TestNestedBracesInMDLBlock(t *testing.T) {
	cfg, err := Parse(`mdl { metric m { base is counter { } } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Metrics) != 1 || cfg.Metrics[0].BaseKind != "counter" {
		t.Errorf("metrics = %+v", cfg.Metrics)
	}
}

// The two defects of the brace-counting parser: an error in an embedded
// metric names the line of the file, not of the block, and a brace inside a
// comment or a string does not end the block.
func TestPCLErrorsNameTheFileLine(t *testing.T) {
	broken := strings.Replace(sample, "pcl_barriers++;", "ghost++;", 1)
	if _, err := CompileSource(broken); err == nil || !strings.HasPrefix(err.Error(), `mdl:27: metric pcl_barriers: unknown counter "ghost"`) {
		t.Errorf("undeclared counter on line 27: %v", err)
	}
	if _, err := CompileSource(strings.Replace(sample, "pcl_barriers {", "pcl_barriers { bogus;", 1)); err == nil || !strings.HasPrefix(err.Error(), "mdl:23:") {
		t.Errorf("syntax error on line 23: %v", err)
	}
	braces := strings.Replace(sample, `"PMPI_Barrier" };`, `"PMPI_Barrier", "no}such{fn" }; // a } and a {`, 1)
	f, err := Parse(braces)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ResourceLists[0].Items; len(got) != 3 || got[2] != "no}such{fn" || len(f.Metrics) != 1 {
		t.Errorf("resource list %q, %d metrics", got, len(f.Metrics))
	}
}

// pclCorpus is what the PCL parser is compared with its predecessor on: the
// example file, the sources of the tests that moved here and of
// internal/core's, and generated variants — signed and exponent tunables,
// repeated tunables, the blocks of the example in every order, every
// mpi_implementation spelling, braces in comments and strings.
func pclCorpus(t *testing.T) []string {
	example, err := os.ReadFile("../../testdata/example.pcl")
	if err != nil {
		t.Fatal(err)
	}
	corpus := []string{string(example), sample, corePCLSource,
		"// nothing but comments\n\n", `mdl { metric m { base is counter { } } }`,
		`daemon d { command "x"; }`, "",
		`daemon d { command "x" }`, `daemon d { mpi_implementation "openmpi"; }`, `daemon d { bogus "x"; }`,
		`widget w { }`, `tunable_constant { "x" abc; }`, `daemon d { command "unterminated }`, `mdl { { }`,
		`daemon d { command "a"; } daemon d { command "b"; }`, `process p { daemon; }`,
		`tunable_constant { "PC_CPUThreshold" 0.5; "PC_CPUThreshold" 0.2; "PC_SyncThreshold" 0.1; }
tunable_constant { "PC_CPUThreshold" 0.25; }`,
		`tunable_constant { "a" 1 }`, `tunable_constant { "a" - 1; }`, `tunable_constant { "a" 1-1; }`, `tunable_constant { a 1; }`,
		`process p { command "mpirun -np 2 x"; daemon d; } process p { command "y"; }`,
	}
	for _, v := range []string{"0", "-5", "+3", "-250", "0.0000001", "1e3", "2.5e-3", "-1e+2", "1E3", "1e", "1.5.2", "--1", "e5"} {
		corpus = append(corpus, "// tunables\ntunable_constant {\n    \"PC_EvalIntervalMS\" "+v+";\n}\n")
	}
	for _, name := range []string{"lam", "LAM", "Lam", "mpich", "MPICH", "mpich2", "MPICH2", "reference", "Reference", "lam/mpi", "LAM/MPI", "ref", "openmpi", "", "mpich 2"} {
		corpus = append(corpus, fmt.Sprintf("daemon d {\n  command \"paradynd\";\n  mpi_implementation %q;\n}\n", name))
	}
	chunks := strings.Split(strings.TrimSpace(string(example)), "\n\n") // header comment, then four blocks
	head, blocks := chunks[0], chunks[1:]
	var permute func(done []string, rest []string)
	permute = func(done []string, rest []string) {
		if len(rest) == 0 {
			corpus = append(corpus, head+"\n\n"+strings.Join(done, "\n\n")+"\n")
			return
		}
		for i := range rest {
			others := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			permute(append(done[:len(done):len(done)], rest[i]), others)
		}
	}
	permute(nil, blocks)
	for _, c := range []string{"// a } in a comment", "// a { in a comment", `resourceList s is procedure { "a}b" };`, `resourceList s is procedure { "a{b" };`} {
		corpus = append(corpus, "daemon d { mpi_implementation \"lam\"; }\nmdl {\n"+c+"\n}\n")
	}
	return corpus
}

// corePCLSource is internal/core's TestSessionFromPCL file.
const corePCLSource = `
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

// Parse reads every file of the corpus the way the replaced PCL parser did:
// the same daemons, processes and tunables, values and lines included, and
// embedded MDL compiling to the same metric names and units. Every file the
// old parser refused is refused, except the documented changes: a brace in a
// comment or a string of an mdl block no longer ends it, and an
// mpi_implementation is read by mpi.ParseImpl, so LAM/MPI and ref are names.
func TestParseMatchesReplacedPCLParser(t *testing.T) {
	accepted := 0
	for _, src := range pclCorpus(t) {
		old, oldErr := refParsePCL(src)
		f, err := Parse(src)
		if oldErr != nil {
			if err == nil && !documentedFix(src) {
				t.Errorf("the old parser refused (%v), Parse accepts:\n%s", oldErr, src)
			}
			continue
		}
		if err != nil {
			t.Errorf("the old parser accepted, Parse refuses (%v):\n%s", err, src)
			continue
		}
		accepted++
		if len(f.Daemons) != len(old.Daemons) || len(f.Processes) != len(old.Processes) {
			t.Errorf("%d daemons and %d processes, the old parser %d and %d:\n%s", len(f.Daemons), len(f.Processes), len(old.Daemons), len(old.Processes), src)
			continue
		}
		for i, d := range f.Daemons {
			o := old.Daemons[i]
			want := *d
			want.Name, want.Command, want.Flavor, want.HasImpl = o.Name, o.Command, o.Flavor, o.MPIImplementation != ""
			if o.MPIImplementation != "" {
				want.Impl, _ = mpi.ParseImpl(o.MPIImplementation)
			}
			if *d != want {
				t.Errorf("daemon %+v, the old parser %+v:\n%s", *d, *o, src)
			}
		}
		for i, p := range f.Processes {
			if o := old.Processes[i]; p.Name != o.Name || p.Command != o.Command || p.Daemon != o.Daemon {
				t.Errorf("process %+v, the old parser %+v:\n%s", *p, *o, src)
			}
		}
		names := map[string]bool{}
		for _, tu := range f.Tunables {
			names[tu.Name] = true
		}
		if len(names) != len(old.Tunables) {
			t.Errorf("%d tunables, the old parser %d:\n%s", len(names), len(old.Tunables), src)
		}
		for name, v := range old.Tunables {
			if tu := f.Tunable(name); tu == nil || tu.Value != v || tu.Line != old.TunableLine(name) {
				t.Errorf("tunable %q = %+v, the old parser %v on line %d:\n%s", name, tu, v, old.TunableLine(name), src)
			}
		}
		if got, want := compiledMetrics(Compile(f)), compiledMetrics(CompileSource(old.MDL)); got != want {
			t.Errorf("compiles to %s, the old parser's MDL to %s:\n%s", got, want, src)
		}
	}
	if accepted < 40 {
		t.Errorf("only %d corpus files parse; the comparison needs more", accepted)
	}
}

// documentedFix reports whether src is one the old parser refused by design
// of a defect or of its own list of implementation names.
func documentedFix(src string) bool {
	for _, s := range []string{"} in a comment", "{ in a comment", `"a}b"`, `"a{b"`, `"lam/mpi"`, `"LAM/MPI"`, `"ref"`} {
		if strings.Contains(src, s) {
			return true
		}
	}
	return false
}

func compiledMetrics(lib *Library, err error) string {
	if err != nil {
		return "an error"
	}
	var b strings.Builder
	for _, name := range lib.MetricNames() {
		fmt.Fprintf(&b, "%s (%s); ", name, lib.Metric(name).Units())
	}
	return b.String()
}

// FuzzCompileSource: any text compiles to a library or is an error — never
// a panic or a hang — and an accepted file parses again to the same
// daemons, processes and tunables, which compiling it does not touch.
func FuzzCompileSource(f *testing.F) {
	example, err := os.ReadFile("../../testdata/example.pcl")
	if err != nil {
		f.Fatal(err)
	}
	// Small seeds only: the 27 KB StdSource stalls the mutator.
	for _, src := range []string{string(example), sample, corePCLSource,
		`mdl { metric m { base is counter { } } }`, `tunable_constant { "x" -1.5e3; }`,
		"daemon d { mpi_implementation \"lam\"; }\nmdl {\n// a } in a comment\n}\n"} {
		f.Add(src)
	}
	// One $arg read of each form: number, truth, == against a number, a
	// string and another argument, MPI_Type_size as a value and a statement,
	// and the three name builtins.
	for _, read := range []string{`m = $arg[1];`, `if ($arg[4]) m++;`, `if ($arg[4] == 7) m++;`,
		`if ($arg[6] == "name") m++;`, `if ($arg[1] == $arg[4]) m++;`, `m = MPI_Type_size($arg[2]);`,
		`MPI_Type_size($arg[2], &aux);`, `if (DYNINSTComm_FindId($arg[5]) == "comm-1") m++;`,
		`if (DYNINSTTagName($arg[4]) == "tag-7") m++;`, `if (DYNINSTWindow_FindUniqueId($arg[7]) == "0-1") m++;`} {
		f.Add(`resourceList s is procedure { "MPI_Send" };
metric m { name "m"; units ops; counter aux; base is counter { foreach func in s { append preinsn func.entry (* ` + read + ` *) } } }`)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lib, err := CompileSource(src)
		if (lib == nil) == (err == nil) {
			t.Fatalf("CompileSource = %v, %v", lib, err)
		}
		if err != nil {
			return
		}
		first, err := Parse(src)
		if err != nil {
			t.Fatalf("CompileSource accepted what Parse refuses: %v", err)
		}
		if _, err := Compile(first); err != nil {
			t.Fatalf("Compile refuses what CompileSource accepted: %v", err)
		}
		again, _ := Parse(src)
		if !reflect.DeepEqual(first.Daemons, again.Daemons) || !reflect.DeepEqual(first.Processes, again.Processes) || !reflect.DeepEqual(first.Tunables, again.Tunables) {
			t.Fatalf("re-parsing gives other declarations:\n%+v %+v %+v\n%+v %+v %+v", first.Daemons, first.Processes, first.Tunables, again.Daemons, again.Processes, again.Tunables)
		}
	})
}
