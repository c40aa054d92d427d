package pperfmark

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"pperf/internal/mpi"
)

const verdictsGolden = "testdata/verdicts.txt"

// verdictRuns are the sizes at which the suite's verdicts flip with the rank
// count (random-barrier at 4 and 8, diffuse-procedure at 6, sstwod at 2 and
// 6), plus fileio-bound, all under LAM at the default iterations.
var verdictRuns = []struct {
	program string
	procs   int
}{
	{"random-barrier", 4}, {"random-barrier", 8}, {"diffuse-procedure", 6},
	{"sstwod", 2}, {"sstwod", 6}, {"fileio-bound", 0},
}

var (
	judgedOnce sync.Once
	judged     []*Result
	judgedErr  error
)

// verdictCases runs verdictRuns once per test binary and returns every run
// relabelled under every registry name and every personality, each a copy of
// the Result with Program and Impl swapped, so Judge reads one run's
// findings against every program's expectations. labels name each case.
func verdictCases(t *testing.T) (cases []*Result, labels []string) {
	t.Helper()
	judgedOnce.Do(func() {
		judged = make([]*Result, len(verdictRuns))
		errs := make([]error, len(verdictRuns))
		var wg sync.WaitGroup
		for i, r := range verdictRuns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				judged[i], errs[i] = Run(r.program, RunOptions{Impl: mpi.LAM, Params: Params{Procs: r.procs}})
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil && judgedErr == nil {
				judgedErr = err
			}
		}
	})
	if judgedErr != nil {
		t.Fatal(judgedErr)
	}
	for _, res := range judged {
		for _, name := range Names() {
			for _, impl := range []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2, mpi.Reference} {
				c := *res
				c.Program, c.Impl = name, impl
				cases = append(cases, &c)
				labels = append(labels, fmt.Sprintf("%s np=%d as %s/%s", res.Program, res.Params.Procs, name, impl))
			}
		}
	}
	return cases, labels
}

// Every verdict text — pass, paper result, details and problems — of the
// verdict runs judged under every program and personality is pinned: the
// expectations may change form, never what they say.
func TestVerdictTextIsPinned(t *testing.T) {
	t.Parallel()
	cases, labels := verdictCases(t)
	var b strings.Builder
	for i, res := range cases {
		v := Judge(res)
		fmt.Fprintf(&b, "%s: pass=%v paper=%s details=%q problems=%q\n", labels[i], v.Pass, v.PaperResult, v.Details, v.Problems)
	}
	want, err := os.ReadFile(verdictsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("%s:%d:\nwant %s\ngot  %s", verdictsGolden, i+1, w[i], g[i])
			}
		}
		t.Fatalf("%d verdict lines, %s holds %d", len(g), verdictsGolden, len(w))
	}
}

// judgeAllocs bounds what judging every verdict case allocates in all.
const judgeAllocs = 1884

// Not parallel: AllocsPerRun counts every goroutine's allocations.
func TestJudgeAllocationBudget(t *testing.T) {
	cases, _ := verdictCases(t)
	n := testing.AllocsPerRun(1, func() {
		for _, res := range cases {
			Judge(res)
		}
	})
	if n > judgeAllocs {
		t.Errorf("judging %d cases: %v allocs, budget %d", len(cases), n, judgeAllocs)
	}
}

// A run without the Consultant is judged on what it has, its totals and its
// hierarchy check, and fails small-messages with one Problem for the findings
// nothing tested; allcount expects no finding and passes. Its replay is
// judged the same.
func TestJudgeWithoutTheConsultant(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"small-messages", "allcount"} {
		c := recorded(t, &cell{program: name, opt: RunOptions{DisablePC: true, Params: Params{Iterations: 50}}})
		v := Judge(c.live)
		want := "pass=true details=5 problems=[]"
		if name == "small-messages" {
			want = `pass=false details=1 problems=["no Performance Consultant ran, so no expected finding was tested"]`
		}
		if got := fmt.Sprintf("pass=%v details=%d problems=%q", v.Pass, len(v.Details), v.Problems); got != want {
			t.Errorf("%s: %s, want %s (details %q)", name, got, want, v.Details)
		}
		sameReplay(t, c)
	}
}
