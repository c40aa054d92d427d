package pperfmark

// What-if replay: the same recorded event stream re-analyzed under
// altered Performance Consultant thresholds, so a threshold change can be
// evaluated without re-running the cluster.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"pperf/internal/consultant"
	"pperf/internal/mpi"
)

func TestWhatIfThresholdFlipsVerdict(t *testing.T) {
	a := recorded(t, &cell{program: "small-messages", opt: RunOptions{Impl: mpi.LAM, Seed: 7, Params: shortSmallMessages}}).archive

	base, err := Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	if !base.PC.TopLevelTrue(consultant.HypSync) {
		t.Fatal("baseline replay: ExcessiveSyncWaitingTime expected true")
	}

	// Raise the sync threshold above any achievable waiting fraction: the
	// identical archive must now test false.
	whatif, err := ReplayWith(a, ReplayOptions{SyncThreshold: 0.9999})
	if err != nil {
		t.Fatal(err)
	}
	if whatif.PC.TopLevelTrue(consultant.HypSync) {
		t.Error("what-if replay with SyncThreshold=0.9999: verdict did not flip to false")
	}
	// Untouched hypotheses keep their recorded configuration and verdicts.
	if whatif.PC.TopLevelTrue(consultant.HypIO) != base.PC.TopLevelTrue(consultant.HypIO) {
		t.Error("what-if sync override changed the io verdict")
	}
	if whatif.PC.TopLevelTrue(consultant.HypCPU) != base.PC.TopLevelTrue(consultant.HypCPU) {
		t.Error("what-if sync override changed the cpu verdict")
	}

	// The override lives in the replay, not the archive: a third replay
	// with no overrides reproduces the baseline exactly.
	again, err := Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	diffSnapshots(t, "replay after what-if", snapshot(t, base), snapshot(t, again))
}

// A loaded archive is read-only to its replays — its sample batches stay
// packed and every replay decodes them into scratch of its own — so one
// archive replays under several what-if grid points at once, each exactly as
// it replays alone. `make race` runs this test under the race detector.
func TestConcurrentReplaysOfOneArchive(t *testing.T) {
	a := recorded(t, &cell{program: "small-messages", opt: RunOptions{Impl: mpi.LAM, Seed: 7, Params: shortSmallMessages}}).archive
	grid := []ReplayOptions{{}, {SyncThreshold: 0.9999}, {IOThreshold: 0.05}, {CPUThreshold: 0.1}}
	alone := make([]string, len(grid))
	for i, o := range grid {
		res, err := ReplayWith(a, o)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = snapshot(t, res)
	}
	together := make([]string, len(grid))
	errs := make([]error, len(grid))
	var wg sync.WaitGroup
	for i, o := range grid {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ReplayWith(a, o)
			if err == nil {
				together[i], err = render(res)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range grid {
		if errs[i] != nil {
			t.Fatalf("%+v: %v", grid[i], errs[i])
		}
		diffSnapshots(t, fmt.Sprintf("replay under %+v beside three others", grid[i]), alone[i], together[i])
	}
}

// A replay's spec carries the Consultant configuration it ran: the recorded
// one under zero ReplayOptions, each non-zero threshold in place of its own.
func TestWhatIfZeroValuesKeepRecordedConfig(t *testing.T) {
	a := recorded(t, &cell{program: "spawncount", opt: RunOptions{Impl: mpi.MPICH}}).archive
	want := ScaledPCConfig()
	if res, err := Replay(a); err != nil || res.PCConfig != want {
		t.Errorf("zero ReplayOptions replay %v (%v), want the recorded configuration", res, err)
	}
	want.SyncThreshold, want.IOThreshold, want.CPUThreshold = 0.5, 0.6, 1
	if res, err := ReplayWith(a, ReplayOptions{SyncThreshold: 0.5, IOThreshold: 0.6, CPUThreshold: 1}); err != nil || res.PCConfig != want {
		t.Errorf("overrides replay %v (%v), want pc-sync=0.5 pc-io=0.6 pc-cpu=1", res, err)
	}
}

// A what-if threshold outside (0, 1] is refused, as -pcl and the CLI's
// -what-if-* flags refuse it: only zero means "keep the recorded value".
func TestWhatIfThresholdOutOfRangeIsRefused(t *testing.T) {
	// The overrides are checked before anything is replayed, so the
	// cheapest archive will do: a spawn program MPICH cannot run.
	a := recorded(t, &cell{program: "spawncount", opt: RunOptions{Impl: mpi.MPICH}}).archive
	for _, v := range []float64{1.5, -0.1, math.NaN()} {
		for _, o := range []ReplayOptions{{SyncThreshold: v}, {IOThreshold: v}, {CPUThreshold: v}} {
			if _, err := ReplayWith(a, o); err == nil || !strings.Contains(err.Error(), "(0, 1]") {
				t.Errorf("ReplayWith(%+v) = %v, want the (0, 1] range error", o, err)
			}
		}
	}
}
