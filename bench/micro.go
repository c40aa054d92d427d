package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"pperf/internal/cluster"
	"pperf/internal/core"
	"pperf/internal/datasource"
	"pperf/internal/mdl"
	"pperf/internal/metric"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/stats"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// Layer micro drivers: small closed loops that call one layer's exported
// functions and nothing else, so a layer's unit cost can be read without a
// profile. Each loop grows its iteration count until a single timed call
// lasts microMin.

// microMin is how long each driver's timed call must last. The issue asks
// for half a second; the driver contract's total time cap leaves room for
// 0.3 s once every traced run carries every driver.
const microMin = 300 * time.Millisecond

// timeLoop calls f(n) with growing n until one call lasts at least min, and
// returns that call's time and mallocs per iteration.
func timeLoop(min time.Duration, f func(n int) error) (nsPerOp, allocsPerOp float64, err error) {
	var ms0, ms1 runtime.MemStats
	for n := 64; ; {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		if err := f(n); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if d >= min || n >= 1<<30 {
			return float64(d) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
		}
		// Aim 20% past the minimum; never grow by more than 100x a step.
		grow := 1.2 * float64(min) / float64(d+1)
		if grow > 100 {
			grow = 100
		}
		if grow < 1.5 {
			grow = 1.5
		}
		n = int(float64(n) * grow)
	}
}

// microDriver is one driver: it returns the metrics it measured.
type microDriver struct {
	Name string
	Run  func(min time.Duration) (map[string]float64, error)
}

// nsMetric adapts a plain loop into a driver reporting ns (scaled by div,
// so 1e3 gives us and 1e6 ms) and, when allocsName is set, mallocs per op.
func nsMetric(name string, div float64, allocsName string, f func(n int) error) microDriver {
	return microDriver{Name: name, Run: func(min time.Duration) (map[string]float64, error) {
		ns, allocs, err := timeLoop(min, f)
		if err != nil {
			return nil, err
		}
		out := map[string]float64{name: ns / div}
		if allocsName != "" {
			out[allocsName] = allocs
		}
		return out, nil
	}}
}

// bareWorld runs prog on n ranks of a tool-less world to completion.
func bareWorld(ranks int, prog mpi.Program) error {
	eng := sim.NewEngine(1)
	nodes := (ranks + 1) / 2
	w := mpi.NewWorld(eng, cluster.DefaultSpec(nodes, 2), mpi.NewImpl(mpi.LAM))
	w.Register("x", prog)
	if _, err := w.LaunchN("x", ranks, nil); err != nil {
		return err
	}
	return eng.Run()
}

// fixedClock is a probe clock that never advances.
type fixedClock struct{}

func (fixedClock) Now() sim.Time            { return 0 }
func (fixedClock) CPUTime() sim.Duration    { return 0 }
func (fixedClock) AddOverhead(sim.Duration) {}

// probeTarget adapts a bare probe.Process for metric instantiation.
type probeTarget struct{ p *probe.Process }

func (t probeTarget) Probes() *probe.Process            { return t.p }
func (t probeTarget) FunctionsOfModule(string) []string { return nil }
func (t probeTarget) WallNow() sim.Time                 { return 0 }
func (t probeTarget) CPUNow() sim.Duration              { return 0 }
func (t probeTarget) SystemNow() sim.Duration           { return 0 }

// sampleBatch is a batch of samples like a daemon tick ships: nProcs
// processes x the given pairs, times advancing 50 ms per batch.
func sampleBatch(rng *rand.Rand, tick int, nProcs int, metrics []string) []datasource.Sample {
	focus := resource.WholeProgram()
	var batch []datasource.Sample
	for p := 0; p < nProcs; p++ {
		for _, m := range metrics {
			v := float64(rng.Intn(1000))
			batch = append(batch, datasource.Sample{
				Metric: m, Focus: focus, Proc: fmt.Sprintf("prog{%d}", p),
				Time: sim.Time(tick) * sim.Time(50*sim.Millisecond), Delta: v, Value: v * float64(tick),
			})
		}
	}
	return batch
}

var microMetrics = []string{"msgs_sent", "msg_bytes_sent", "sync_wait_inclusive", "cpu_inclusive"}

// syntheticArchive builds an archive of nEvents events: sample batches
// only, or the mix a recorded run holds (samples, resource updates,
// enables, barriers).
func syntheticArchive(nEvents int, samplesOnly bool) *session.Archive {
	rng := rand.New(rand.NewSource(2))
	a := &session.Archive{Header: session.Header{
		Version: session.Version, NumBins: 1000, BinWidth: 50 * sim.Millisecond,
		Meta: map[string]string{"program": "synthetic", "seed": "1"},
	}}
	for i := 0; len(a.Events) < nEvents; i++ {
		k := 0
		if !samplesOnly {
			k = rng.Intn(6)
		}
		switch k {
		case 0, 1, 2:
			a.Events = append(a.Events, session.Event{Kind: session.EvSamples, Samples: sampleBatch(rng, i, 4, microMetrics)})
		case 3:
			a.Events = append(a.Events, session.Event{Kind: session.EvUpdate, Update: datasource.Update{
				Kind: datasource.UpAddResource, Path: fmt.Sprintf("/Code/app.c/fn%d", rng.Intn(50)),
				Time: sim.Time(i) * sim.Time(sim.Millisecond), Daemon: "paradynd@node0",
			}})
		case 4:
			a.Events = append(a.Events, session.Event{Kind: session.EvBarrier})
		default:
			a.Events = append(a.Events, session.Event{Kind: session.EvEnable, Metric: microMetrics[rng.Intn(len(microMetrics))],
				Focus: resource.WholeProgram().WithCode(fmt.Sprintf("/Code/app.c/fn%d", rng.Intn(50)))})
		}
	}
	a.Header.NumEvents = len(a.Events)
	return a
}

// archiveThroughput reports MB/s of f over the archive's encoded size.
func archiveThroughput(name string, a *session.Archive, read bool) microDriver {
	return microDriver{Name: name, Run: func(min time.Duration) (map[string]float64, error) {
		var enc bytes.Buffer
		if err := perfdb.WriteArchive(&enc, a); err != nil {
			return nil, err
		}
		size := float64(enc.Len())
		var buf bytes.Buffer
		ns, _, err := timeLoop(min, func(n int) error {
			for i := 0; i < n; i++ {
				if read {
					if _, err := perfdb.ReadArchive(bytes.NewReader(enc.Bytes())); err != nil {
						return err
					}
					continue
				}
				buf.Reset()
				if err := perfdb.WriteArchive(&buf, a); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return map[string]float64{name: size / ns * 1e3}, nil // bytes/ns → MB/s
	}}
}

// echoFrame and echoAck are the wire driver's request and reply frames.
type echoFrame struct {
	Seq  uint64
	Data []byte
}
type echoAck struct{ Seq uint64 }

// echoServer acknowledges every frame it is sent, on the wire package's
// own accept loop and frame reader. A handler ends when its client closes
// the connection; stop closes the listener and waits for the handlers.
func echoServer() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		wire.AcceptLoop(ln, func() bool { return true }, nil, &wg, func(c net.Conn) {
			dec, enc := gob.NewDecoder(c), gob.NewEncoder(c)
			for {
				var f echoFrame
				if _, err := wire.ReadFrame(c, dec, wire.DefaultReadTimeout, &f); err != nil {
					return
				}
				if err := enc.Encode(echoAck{Seq: f.Seq}); err != nil {
					return
				}
			}
		})
	}()
	stop = func() {
		ln.Close()
		<-done
		wg.Wait()
	}
	return ln.Addr().String(), stop, nil
}

// exchangeLoop round-trips n frames of the given payload size.
func exchangeLoop(payload int) func(n int) error {
	return func(n int) error {
		addr, stop, err := echoServer()
		if err != nil {
			return err
		}
		defer stop() // runs after the client below has closed its connection
		c, err := wire.Dial(addr, wire.DefaultConfig(), 1)
		if err != nil {
			return err
		}
		defer c.Close()
		f := echoFrame{Data: make([]byte, payload)}
		for i := 0; i < n; i++ {
			var ack echoAck
			err := c.Exchange(wire.Request{Req: &f, Stamp: func(seq uint64) { f.Seq = seq }, Resp: &ack, Label: "bench: echo"})
			if err != nil {
				return err
			}
			if ack.Seq != f.Seq {
				return fmt.Errorf("echo acked seq %d for frame %d", ack.Seq, f.Seq)
			}
		}
		return nil
	}
}

const sendFunc, sendModule = "MPI_Send", "libmpi"

// sampleRanks is the rank count of the daemon sampling driver.
const sampleRanks = 4

// microDrivers lists every driver; between them they produce exactly the
// registry's "micro" metrics (checked by the tests).
var microDrivers = []microDriver{
	nsMetric("sim.switch_ns", 1, "sim.switch_allocs", func(n int) error {
		eng := sim.NewEngine(1)
		eng.StartProc("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Microsecond)
			}
		})
		return eng.Run()
	}),
	nsMetric("sim.callback_ns", 1, "", func(n int) error {
		eng := sim.NewEngine(1)
		// Pure events do not keep the engine alive; one sleeping process
		// outlasts the callback chain.
		eng.StartProc("clock", func(p *sim.Proc) { p.Sleep(sim.Duration(n+1) * sim.Microsecond) })
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(sim.Microsecond, tick)
			}
		}
		eng.After(sim.Microsecond, tick)
		return eng.Run()
	}),
	nsMetric("mpi.eager_ns", 1, "mpi.eager_allocs", func(n int) error {
		return bareWorld(2, func(r *mpi.Rank, _ []string) {
			c := r.World()
			for i := 0; i < n; i++ {
				if r.Rank() == 0 {
					c.Send(r, nil, 8, mpi.Byte, 1, 0)
				} else {
					c.Recv(r, nil, 8, mpi.Byte, 0, 0)
				}
			}
		})
	}),
	nsMetric("mpi.rendezvous_ns", 1, "", func(n int) error {
		return bareWorld(2, func(r *mpi.Rank, _ []string) {
			c := r.World()
			for i := 0; i < n; i++ {
				if r.Rank() == 0 {
					c.Send(r, nil, 100000, mpi.Byte, 1, 0)
				} else {
					c.Recv(r, nil, 100000, mpi.Byte, 0, 0)
				}
			}
		})
	}),
	nsMetric("mpi.barrier_ns", 1, "", func(n int) error {
		return bareWorld(6, func(r *mpi.Rank, _ []string) {
			c := r.World()
			for i := 0; i < n; i++ {
				c.Barrier(r)
			}
		})
	}),
	nsMetric("mpi.put_fence_ns", 1, "", func(n int) error {
		return bareWorld(2, func(r *mpi.Rank, _ []string) {
			win, err := r.World().WinCreate(r, 64, 1, nil)
			if err != nil {
				panic(err)
			}
			for i := 0; i < n; i++ {
				win.Fence(0)
				if r.Rank() == 0 {
					win.Put(nil, 16, mpi.Byte, 1, 0, 16, mpi.Byte)
				}
				win.Fence(0)
			}
			win.Free()
		})
	}),
	nsMetric("probe.fire_ns", 1, "probe.fire_allocs", func(n int) error {
		p := probe.NewProcess("bench", fixedClock{})
		f := &probe.Function{Name: "f", Module: "m"}
		fired := 0
		p.Insert("f", probe.Entry, probe.Append, func(*probe.Event) { fired++ })
		for i := 0; i < n; i++ {
			p.Enter(f)
			p.Leave(f)
		}
		if fired != n {
			return fmt.Errorf("probe fired %d times in %d calls", fired, n)
		}
		return nil
	}),
	nsMetric("probe.insert_remove_ns", 1, "", func(n int) error {
		p := probe.NewProcess("bench", fixedClock{})
		h := func(*probe.Event) {}
		for i := 0; i < n; i++ {
			p.Remove(p.Insert("f", probe.Entry, probe.Append, h))
		}
		if p.ActiveProbes() != 0 {
			return fmt.Errorf("%d probes left after insert/remove pairs", p.ActiveProbes())
		}
		return nil
	}),
	nsMetric("mdl.compile_ms", 1e6, "", func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := mdl.CompileSource(mdl.StdSource); err != nil {
				return err
			}
		}
		return nil
	}),
	nsMetric("mdl.instantiate_us", 1e3, "", func(n int) error {
		t := probeTarget{probe.NewProcess("bench", fixedClock{})}
		cm := mdl.StdLib().Metric("msgs_sent")
		for i := 0; i < n; i++ {
			in, err := cm.Instantiate(t, resource.WholeProgram())
			if err != nil {
				return err
			}
			in.Remove()
		}
		return nil
	}),
	nsMetric("mdl.handler_ns", 1, "", func(n int) error {
		t := probeTarget{probe.NewProcess("bench", fixedClock{})}
		in, err := mdl.StdLib().Metric("msgs_sent").Instantiate(t, resource.WholeProgram())
		if err != nil {
			return err
		}
		f := &probe.Function{Name: sendFunc, Module: sendModule}
		for i := 0; i < n; i++ {
			t.p.Enter(f)
			t.p.Leave(f)
		}
		if got := in.Acc.Sample(0, 0); got != float64(n) {
			return fmt.Errorf("msgs_sent counted %.0f of %d sends", got, n)
		}
		return nil
	}),
	nsMetric("metric.hist_add_ns", 1, "", func(n int) error {
		h := metric.NewHistogram(1000, 50*sim.Millisecond)
		for i := 0; i < n; i++ {
			h.Add(sim.Time(i)*sim.Time(sim.Millisecond), 1)
		}
		if h.Total() != float64(n) {
			return fmt.Errorf("histogram holds %.0f of %d", h.Total(), n)
		}
		return nil
	}),
	// Compute-only ranks cost the simulator one event each, so the
	// session's wall time is the daemons' sampling ticks and the front end
	// folding what they ship: us per (tick x rank x metric).
	nsMetric("daemon.sample_us", 1e3*sampleRanks*float64(len(microMetrics)), "", func(ticks int) error {
		s, err := core.NewSession(sessionOptions(mpi.LAM, 2, 2, 1))
		if err != nil {
			return err
		}
		defer s.Close()
		s.Register("idle", func(r *mpi.Rank, _ []string) {
			r.Compute(sim.Duration(ticks) * 50 * sim.Millisecond)
		})
		for _, m := range microMetrics {
			if _, err := s.Enable(m, resource.WholeProgram()); err != nil {
				return err
			}
		}
		if err := s.Launch("idle", sampleRanks, nil); err != nil {
			return err
		}
		return s.Run()
	}),
	{Name: "datasource.apply_ns", Run: func(min time.Duration) (map[string]float64, error) {
		rng := rand.New(rand.NewSource(3))
		const batches = 256
		var all [][]datasource.Sample
		for i := 0; i < batches; i++ {
			all = append(all, sampleBatch(rng, i, 6, microMetrics))
		}
		perBatch := float64(len(all[0]))
		ns, _, err := timeLoop(min, func(n int) error {
			v := datasource.NewView()
			v.NumBins, v.BinWidth = 1000, 50*sim.Millisecond
			for _, m := range microMetrics {
				v.RegisterSeries(m, resource.WholeProgram())
			}
			for i := 0; i < n; i++ {
				v.ApplySamples(all[i%batches])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"datasource.apply_ns": ns / perBatch}, nil
	}},
	nsMetric("datasource.series_lookup_ns", 1, "", func(n int) error {
		v := datasource.NewView()
		focus := resource.WholeProgram()
		for _, m := range microMetrics {
			v.RegisterSeries(m, focus)
		}
		for i := 0; i < n; i++ {
			if v.Series(microMetrics[i%len(microMetrics)], focus) == nil {
				return fmt.Errorf("registered series not found")
			}
		}
		return nil
	}),
	nsMetric("wire.exchange_us", 1e3, "", exchangeLoop(16)),
	{Name: "wire.exchange_mb_s", Run: func(min time.Duration) (map[string]float64, error) {
		const payload = 64 << 10
		ns, _, err := timeLoop(min, exchangeLoop(payload))
		if err != nil {
			return nil, err
		}
		return map[string]float64{"wire.exchange_mb_s": payload / ns * 1e3}, nil
	}},
	archiveThroughput("perfdb.pack_mb_s", syntheticArchive(2000, true), false),
	archiveThroughput("perfdb.chunk_write_mb_s", syntheticArchive(2000, false), false),
	archiveThroughput("perfdb.chunk_read_mb_s", syntheticArchive(2000, false), true),
	nsMetric("trace.record_ns", 1, "", func(n int) error {
		r := trace.NewRecorder("prog{0}", "node0", 0)
		s := trace.Span{Kind: trace.MPISpan, Name: "MPI_Send", Peer: "prog{1}", Bytes: 4}
		for i := 0; i < n; i++ {
			s.Seq, s.Start, s.End = uint64(i), sim.Time(i), sim.Time(i+1)
			r.Record(s)
		}
		return nil
	}),
	{Name: "trace.ingest_ns", Run: func(min time.Duration) (map[string]float64, error) {
		const shardSpans = 512
		spans := make([]trace.Span, shardSpans)
		for i := range spans {
			spans[i] = trace.Span{Seq: uint64(i), Kind: trace.MPISpan, Name: "MPI_Send", Start: sim.Time(i), End: sim.Time(i + 1)}
		}
		ns, _, err := timeLoop(min, func(n int) error {
			tl := trace.NewTimeline()
			for i := 0; i < n; i++ {
				// A timeline holds one run's spans; start a fresh one
				// before this one outgrows a long traced run.
				if i%2048 == 2047 {
					tl = trace.NewTimeline()
				}
				tl.Ingest(trace.Shard{Daemon: "paradynd@node0", Proc: fmt.Sprintf("prog{%d}", i%6), Node: "node0", Spans: spans})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"trace.ingest_ns": ns / shardSpans}, nil
	}},
	nsMetric("stats.paired_us", 1e3, "", func(n int) error {
		rng := rand.New(rand.NewSource(4))
		a, b := make([]float64, 200), make([]float64, 200)
		for i := range a {
			a[i] = 100 + rng.Float64()
			b[i] = 101 + rng.Float64()
		}
		for i := 0; i < n; i++ {
			if _, err := stats.PairedDiff(a, b); err != nil {
				return err
			}
		}
		return nil
	}),
	nsMetric("stats.trend_us", 1e3, "", func(n int) error {
		rng := rand.New(rand.NewSource(5))
		ys := make([]float64, 30)
		for i := range ys {
			ys[i] = 100 + 0.5*float64(i) + rng.Float64()
		}
		for i := 0; i < n; i++ {
			if _, err := stats.LinearTrend(ys, 0.05); err != nil {
				return err
			}
		}
		return nil
	}),
}

// runMicro runs every driver and returns the union of their metrics.
func runMicro(min time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range microDrivers {
		vals, err := d.Run(min)
		if err != nil {
			return nil, fmt.Errorf("micro driver %s: %w", d.Name, err)
		}
		for k, v := range vals {
			out[k] = v
		}
	}
	return out, nil
}
