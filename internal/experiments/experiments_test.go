package experiments

import (
	"strings"
	"sync"
	"testing"

	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
		"fig24", "presta", "extensions"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := Run("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

// TestCellCacheSharesOneRun asks one cache for one cell from many goroutines
// at once: all of them must get the one run.
func TestCellCacheSharesOneRun(t *testing.T) {
	c := new(cells)
	got := make([]*pperfmark.Result, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.get("hot-procedure", mpi.LAM).res
		}()
	}
	wg.Wait()
	for i, res := range got {
		if res == nil || res != got[0] {
			t.Fatalf("goroutine %d got run %p, goroutine 0 got %p", i, res, got[0])
		}
	}
}

// TestCellCacheIsPerRun runs one experiment twice: each Run must simulate its
// cells afresh (a benchmark iteration that reused the last one's runs would
// measure nothing).
func TestCellCacheIsPerRun(t *testing.T) {
	orig := registry["fig20"]
	t.Cleanup(func() { registry["fig20"] = orig })
	var seen []*pperfmark.Result
	registry["fig20"] = func(c *cells) *Result {
		seen = append(seen, c.get("hot-procedure", mpi.LAM).res)
		return &Result{OK: true}
	}
	for range 2 {
		if _, err := Run("fig20"); err != nil {
			t.Fatal(err)
		}
	}
	if seen[0] == seen[1] {
		t.Error("two Run calls shared one run of hot-procedure/LAM")
	}
}

// runExp asserts one experiment reproduces the paper's shape.
func runExp(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Errorf("%s did not reproduce: %v", id, res.Notes)
	}
	if res.Measured == "" || res.Output == "" {
		t.Errorf("%s missing measured/output", id)
	}
	return res
}

func TestTable1(t *testing.T) { runExp(t, "table1") }
func TestFig1(t *testing.T)   { runExp(t, "fig1") }
func TestFig2(t *testing.T)   { runExp(t, "fig2") }

func TestFig4ByteEstimate(t *testing.T) {
	res := runExp(t, "fig4")
	// The estimate characteristically undershoots slightly (end-bin
	// elimination), as the paper's 199.3M-of-200M does.
	if !strings.Contains(res.Measured, "estimate") {
		t.Errorf("measured = %q", res.Measured)
	}
}

func TestFig12Jumpshot(t *testing.T)  { runExp(t, "fig12") }
func TestFig15CPUShares(t *testing.T) { runExp(t, "fig15") }
func TestFig17Preview(t *testing.T)   { runExp(t, "fig17") }
func TestFig19Gprof(t *testing.T)     { runExp(t, "fig19") }

func TestRenderShape(t *testing.T) {
	res := runExp(t, "fig2")
	out := res.Render()
	for _, want := range []string{"FIG2", "REPRODUCED", "paper:", "measured:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
