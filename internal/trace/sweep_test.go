package trace_test

// The suite sweep this package's suite-wide tests visit: every PPerfMark
// program under LAM, MPICH and MPICH2, traced at short sizes, in three
// configurations — in process and over loopback TCP with the Consultant off,
// and in process with the Consultant on. Each cell is simulated once per test
// binary, the first time a test asks for the sweep, and keeps its timeline and
// the packed shard stream that built it. A new suite-wide check is a visitor
// over these cells, not another loop of runs.

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pperf/internal/core"
	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

type config int

const (
	inProcess    config = iota // the Consultant off
	overTCP                    // the Consultant off, daemon traffic over loopback TCP
	consultantOn               // in process
)

func (c config) String() string {
	return [...]string{"in process", "over TCP", "in process, Consultant on"}[c]
}

// cell is one traced run: a program under run options (personality, size,
// seed, fault plan and, when not the tracer's defaults, a ring configuration)
// in one configuration. run fills in what it produced.
type cell struct {
	program string
	opt     pperfmark.RunOptions
	config  config

	unsupported bool            // the personality cannot run the program
	tl          *trace.Timeline // the merged timeline
	shards      []trace.Shard   // the stream that built tl, packed, in arrival order
	err         error
}

// options are the cell's run options: traced, by default with the tracer's
// defaults, and with the Consultant off unless the configuration runs it.
func (c *cell) options() pperfmark.RunOptions {
	opt := c.opt
	opt.Trace = cmp.Or(opt.Trace, &trace.Config{})
	opt.DisablePC = c.config != consultantOn
	return opt
}

// String names the cell by its spec, its configuration and its tracer's.
func (c *cell) String() string {
	opt := c.options()
	spec, err := pperfmark.NewSpec(c.program, opt)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%v (%v, tracer %+v)", spec, c.config, *opt.Trace)
}

// run simulates the cell: with the Consultant through pperfmark.Run, without
// it through a session built from pperfmark.SessionOptions, which is the only
// way to put the daemons on TCP.
func (c *cell) run() error {
	stream := &shardStream{}
	opt := c.options()
	opt.Record = stream
	if c.config == consultantOn {
		res, err := pperfmark.Run(c.program, opt)
		if err != nil {
			return err
		}
		c.unsupported, c.tl, c.shards = res.Unsupported != nil, res.Timeline, stream.shards
		return nil
	}
	o, prog, spec, err := pperfmark.SessionOptions(c.program, opt)
	if err != nil {
		return err
	}
	o.UseTCP = c.config == overTCP
	s, err := core.NewSession(o)
	if err != nil {
		return err
	}
	defer s.Close()
	if pperfmark.Get(c.program).Unsupported(s.World.Impl) != nil {
		c.unsupported = true
		return nil
	}
	s.Register(c.program, prog)
	if err := s.Launch(c.program, spec.Params.Procs, nil); err != nil {
		return err
	}
	if err := s.Run(); err != nil {
		return err
	}
	c.tl, c.shards = s.FE.Timeline(), stream.shards
	return nil
}

// traced runs one cell outside the sweep; see built.
func traced(t *testing.T, c *cell) *cell {
	t.Helper()
	c.err = c.run()
	return built(t, c)
}

// built fails t, naming the cell, unless c built and, if its personality runs
// the program, came back with a timeline.
func built(t *testing.T, c *cell) *cell {
	t.Helper()
	if c.err != nil {
		t.Fatalf("%v: %v", c, c.err)
	}
	if c.tl == nil && !c.unsupported {
		t.Fatalf("%v: tracing armed but no timeline came back", c)
	}
	return c
}

// suite is the sweep: built once, its cells in parallel (one worker per P,
// each cell its own session), kept in program × personality × configuration
// order.
var suite = sync.OnceValue(func() []*cell {
	var cells []*cell
	for _, name := range pperfmark.Names() {
		// Every shape, briefly: the packed-plane comparison's sizes.
		iters := min(max(2, pperfmark.Get(name).Defaults.Iterations/40), 60)
		for _, impl := range []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2} {
			for _, cfg := range []config{inProcess, overTCP, consultantOn} {
				cells = append(cells, &cell{program: name, config: cfg, opt: pperfmark.RunOptions{
					Impl: impl, Seed: 7, Params: pperfmark.Params{Iterations: iters}}})
			}
		}
	}
	work := make(chan *cell)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				c.err = c.run()
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

// sweep returns the cells keep selects that the personality could run, in
// sweep order. A selected cell that failed to build fails t, naming the cell.
func sweep(t *testing.T, keep func(*cell) bool) []*cell {
	t.Helper()
	var out []*cell
	for _, c := range suite() {
		switch {
		case !keep(c) || c.unsupported && c.err == nil:
		case c.err != nil:
			t.Errorf("%v: %v", c, c.err)
		case c.tl == nil:
			t.Errorf("%v: tracing armed but no timeline came back", c)
		default:
			out = append(out, c)
		}
	}
	return out
}

// shardStream is a session.Sink that keeps a run's trace shards, in arrival
// order and in the packed form they arrived in. It keeps no sample batch, so
// the caller's reuse of ev.Samples cannot reach it.
type shardStream struct {
	mu     sync.Mutex
	shards []trace.Shard
}

func (s *shardStream) Record(ev session.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Kind == session.EvShard {
		s.shards = append(s.shards, *ev.Shard) // a copy: the caller owns ev.Shard
	}
}
func (*shardStream) SetHistogram(int, sim.Duration) {}
func (*shardStream) SetMeta(string, string)         {}
