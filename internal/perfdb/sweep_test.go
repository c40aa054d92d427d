package perfdb_test

// The recorded runs this package's integration tests visit, each simulated
// once per test binary, the first time a test asks for it: the suite sweep
// (every program under every personality that runs it, plus a traced and a
// self-healing fault run) for the streaming OpenRun comparison, and one
// small-messages run recorded at two chunk granularities at once for the
// stream-recorder and compaction tests. A new check over recorded runs is a
// visitor over these, not another loop of runs.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"pperf/internal/faults"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// tee is a session.Sink that hands everything to each of its sinks, so one
// live run feeds several recorders.
type tee []session.Sink

func (s tee) Record(ev session.Event) {
	for _, k := range s {
		k.Record(ev)
	}
}

func (s tee) SetHistogram(numBins int, binWidth sim.Duration) {
	for _, k := range s {
		k.SetHistogram(numBins, binWidth)
	}
}

func (s tee) SetMeta(k, v string) {
	for _, sk := range s {
		sk.SetMeta(k, v)
	}
}

// cell is one recorded run: a program under run options, streamed through a
// tee into one recorder per chunk size (0 = the default). run fills in the
// live result and the bytes of each recording, in the order of chunks.
type cell struct {
	program string
	opt     pperfmark.RunOptions
	chunks  []int

	live        *pperfmark.Result
	unsupported bool // the personality cannot run the program
	files       [][]byte
	err         error
}

// String names the cell by its spec and its chunk sizes.
func (c *cell) String() string {
	spec, err := pperfmark.NewSpec(c.program, c.opt)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%v, chunks %v", spec, c.chunks)
}

func (c *cell) run() error {
	dir, err := os.MkdirTemp("", "perfdb-cell-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var recs []*perfdb.StreamRecorder
	var sinks tee
	for i, n := range c.chunks {
		rec, err := perfdb.NewStreamRecorder(filepath.Join(dir, fmt.Sprintf("%d.ppdb", i)))
		if err != nil {
			return err
		}
		if n > 0 {
			rec.SetChunkEvents(n)
		}
		recs, sinks = append(recs, rec), append(sinks, rec)
	}
	opt := c.opt
	opt.Record = sinks
	if c.live, err = pperfmark.Run(c.program, opt); err != nil {
		for _, rec := range recs {
			rec.Abort()
		}
		return err
	}
	c.unsupported = c.live.Unsupported != nil
	for i, rec := range recs {
		if err := rec.Close(); err != nil {
			return err
		}
		if n := c.chunks[i]; n > 0 && rec.PeakBufferedEvents() > n {
			return fmt.Errorf("streaming recorder buffered %d events; chunk size is %d", rec.PeakBufferedEvents(), n)
		}
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%d.ppdb", i)))
		if err != nil {
			return err
		}
		if opt.Trace == nil {
			// The writer's 4 MiB byte bound must never be what cuts an
			// untraced chunk (those stay byte-identical to what they always
			// were): the largest frame of a real untraced recording is
			// nowhere near it.
			for pos := len("PPDBA2"); pos < len(data); {
				n := int(binary.BigEndian.Uint32(data[pos+1 : pos+5]))
				if n > 1<<20 {
					return fmt.Errorf("untraced recording holds a %q chunk of %d bytes", data[pos], n)
				}
				pos += 9 + n
			}
		}
		c.files = append(c.files, data)
	}
	return nil
}

// built fails t, naming the cell, unless c built.
func built(t *testing.T, c *cell) *cell {
	t.Helper()
	if c.err != nil {
		t.Fatalf("%v: %v", c, c.err)
	}
	return c
}

// recorded runs one cell outside the sweep; see built.
func recorded(t *testing.T, c *cell) *cell {
	t.Helper()
	c.err = c.run()
	return built(t, c)
}

// archive loads c's i-th recording.
func (c *cell) archive(t *testing.T, i int) *session.Archive {
	t.Helper()
	a, err := perfdb.ReadArchive(bytes.NewReader(c.files[i]))
	if err != nil {
		t.Fatalf("%v: recording %d: %v", c, i, err)
	}
	return a
}

// smallMessages is small-messages under LAM, seed 7, at 15 000 iterations
// (the floor pperfmark's shortSmallMessages documents), recorded in 32-event
// chunks — several flushes over the run — and in default chunks at once.
var smallMessages = sync.OnceValue(func() *cell {
	c := &cell{program: "small-messages", chunks: []int{32, 0}, opt: pperfmark.RunOptions{
		Impl: mpi.LAM, Seed: 7, Params: pperfmark.Params{Iterations: 15000},
	}}
	c.err = c.run()
	return c
})

// suite is the sweep the streaming OpenRun comparison visits: every program
// under every personality, at a quarter of its default iterations (less for
// the two that take seconds) — the comparison needs a recording of every
// program with series in it, not a long one — then random-barrier traced
// and under a self-healing fault plan. Cells run in parallel, one worker per
// P; the sweep keeps their recordings, not their sessions.
var suite = sync.OnceValue(func() []*cell {
	var cells []*cell
	for _, prog := range pperfmark.Names() {
		params := pperfmark.Params{Iterations: pperfmark.Get(prog).Defaults.Iterations / 4}
		switch prog {
		case "small-messages":
			params.Iterations = 3000
		case "wrong-way":
			params.Iterations = 15
		}
		for _, impl := range []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2, mpi.Reference} {
			cells = append(cells, &cell{program: prog, chunks: []int{0}, opt: pperfmark.RunOptions{Impl: impl, Seed: 7, Params: params}})
		}
	}
	plan, err := faults.Parse("restarts=2; t=1s crash-daemon node1 restartable")
	if err != nil {
		panic(err)
	}
	cells = append(cells,
		&cell{program: "random-barrier", chunks: []int{0}, opt: pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Trace: &trace.Config{}}},
		&cell{program: "random-barrier", chunks: []int{0}, opt: pperfmark.RunOptions{Impl: mpi.LAM, Seed: 7, Faults: plan}})
	work := make(chan *cell)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				c.err = c.run()
				c.live = nil
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()
	return cells
})
