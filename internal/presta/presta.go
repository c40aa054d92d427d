// Package presta reimplements the ASCI Purple Presta Stress Test
// Benchmark's rma program (§5.2.1.3): unidirectional and bidirectional
// MPI_Put/MPI_Get throughput and per-operation time over fenced epochs,
// measured by the benchmark's own internal timing. The paper validates the
// tool by comparing Paradyn's RMA metrics against these self-reported
// numbers.
package presta

import (
	"fmt"

	"pperf/internal/mpi"
	"pperf/internal/sim"
)

// Mode selects the rma benchmark's transfer pattern.
type Mode int

const (
	UniPut Mode = iota
	UniGet
	BiPut
	BiGet
)

func (m Mode) String() string {
	switch m {
	case UniPut:
		return "unidirectional Put"
	case UniGet:
		return "unidirectional Get"
	case BiPut:
		return "bidirectional Put"
	case BiGet:
		return "bidirectional Get"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config mirrors the rma program's command-line arguments; the paper used
// 1024 bytes, 3000 operations per epoch, 200 epochs, 2 processes.
type Config struct {
	Bytes       int
	OpsPerEpoch int
	Epochs      int
}

// Report is the benchmark's self-measured output for one mode.
type Report struct {
	Mode   Mode
	Config Config
	// TotalOps and TotalBytes are the issued operation and byte counts
	// (origin side; both sides for bidirectional).
	TotalOps   int
	TotalBytes int64
	// Elapsed is the wall time over all epochs (rank 0's clock).
	Elapsed sim.Duration
}

// Throughput returns bytes/second over the whole run.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalBytes) / r.Elapsed.Seconds()
}

// PerOpTime returns seconds per operation.
func (r *Report) PerOpTime() float64 {
	if r.TotalOps == 0 {
		return 0
	}
	return r.Elapsed.Seconds() / float64(r.TotalOps)
}

// Program builds the rma benchmark as a 2-rank MPI program writing its
// self-measured results into report.
func Program(cfg Config, mode Mode, report *Report) mpi.Program {
	const mod = "presta_rma.c"
	report.Mode = mode
	report.Config = cfg
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		if c.Size() < 2 {
			panic("presta: rma needs 2 processes")
		}
		win, err := c.WinCreate(r, cfg.Bytes*2, 1, nil)
		if err != nil {
			panic(err)
		}
		win.SetName("prestaWin")
		me := r.Rank()
		peer := 1 - me
		active := me == 0 || mode == BiPut || mode == BiGet
		buf := make([]byte, cfg.Bytes)

		win.Fence(0)
		start := r.Now()
		for e := 0; e < cfg.Epochs; e++ {
			if me <= 1 && active {
				r.Call(mod, "runEpoch", func() {
					for op := 0; op < cfg.OpsPerEpoch; op++ {
						switch mode {
						case UniPut, BiPut:
							win.Put(buf, cfg.Bytes, mpi.Byte, peer, 0, cfg.Bytes, mpi.Byte)
						case UniGet, BiGet:
							win.Get(buf, cfg.Bytes, mpi.Byte, peer, 0, cfg.Bytes, mpi.Byte)
						}
					}
				})
			}
			win.Fence(0)
			if me == 0 {
				report.TotalOps += cfg.OpsPerEpoch
				report.TotalBytes += int64(cfg.OpsPerEpoch * cfg.Bytes)
				if mode == BiPut || mode == BiGet {
					report.TotalOps += cfg.OpsPerEpoch
					report.TotalBytes += int64(cfg.OpsPerEpoch * cfg.Bytes)
				}
			}
		}
		if me == 0 {
			report.Elapsed = r.Now().Sub(start)
		}
		win.Free()
	}
}
