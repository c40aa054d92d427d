package pperfmark

// What-if replay: the same recorded event stream re-analyzed under
// altered Performance Consultant thresholds, so a threshold change can be
// evaluated without re-running the cluster.

import (
	"testing"

	"pperf/internal/consultant"
	"pperf/internal/mpi"
)

func TestWhatIfThresholdFlipsVerdict(t *testing.T) {
	_, a := recordRun(t, "small-messages", RunOptions{Impl: mpi.LAM, Seed: 7})

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

func TestWhatIfZeroValuesKeepRecordedConfig(t *testing.T) {
	cfg := consultant.DefaultConfig()
	got := ReplayOptions{}.override(cfg)
	if got != cfg {
		t.Errorf("zero ReplayOptions changed the config: %+v vs %+v", got, cfg)
	}
	got = ReplayOptions{SyncThreshold: 0.5, IOThreshold: 0.6, CPUThreshold: 0.7}.override(cfg)
	if got.SyncThreshold != 0.5 || got.IOThreshold != 0.6 || got.CPUThreshold != 0.7 {
		t.Errorf("overrides not applied: %+v", got)
	}
}
