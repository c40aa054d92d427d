// Record and replay: capture a live tool session's analysis-plane event
// stream into an archive, then re-run the Performance Consultant offline
// against the recording — no simulated cluster, no daemons — and check it
// reproduces the live diagnosis exactly (see REPLAY.md).
//
//	go run ./examples/record-replay
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pperf"
)

func main() {
	dir, err := os.MkdirTemp("", "pperf-replay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	archive := filepath.Join(dir, "run.ppdb")

	// Live run: the recorder rides along, streaming every sample batch,
	// resource update, metric enable, and Consultant read barrier to disk.
	rec, err := pperf.NewStreamRecorder(archive)
	if err != nil {
		log.Fatal(err)
	}
	live, err := pperf.RunSuiteProgram("small-messages", pperf.SuiteOptions{
		Impl:   pperf.LAM,
		Seed:   7,
		Record: rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(archive)
	fmt.Printf("recorded %d events (%d bytes) to %s\n\n", rec.EventCount(), fi.Size(), archive)

	// Offline replay: the Consultant re-runs against the archive through
	// the same DataSource interface the live front end implements.
	a, err := pperf.LoadAnyArchive(archive)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := pperf.ReplaySuiteRun(a)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("replayed Performance Consultant report:")
	fmt.Print(replayed.PC.Render())

	if live.PC.Render() == replayed.PC.Render() {
		fmt.Println("\nlive and replayed reports are byte-identical")
	} else {
		fmt.Println("\nWARNING: replay diverged from the live run")
	}
}
