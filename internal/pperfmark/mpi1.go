package pperfmark

import (
	"fmt"

	"pperf/internal/consultant"
	"pperf/internal/mpi"
	"pperf/internal/sim"
)

// mpi1Suite is the MPI-1 half of PPerfMark (Table 2), ported from
// Grindstone. Paper parameters are noted per program; the runnable defaults
// are scaled so the whole suite executes quickly while leaving the
// Performance Consultant enough virtual time to converge.
var mpi1Suite = []Entry{{
	Name: "small-messages",
	Description: "Many small messages from client ranks to a rank-0 " +
		"server; the clients' sends throttle on the overloaded server.",
	Defaults:    Params{Iterations: 30000, MessageSize: 4, Procs: 6},
	PaperParams: "10,000,000 iterations, 4-byte messages, 6 processes on 3 nodes",
	Make:        smallMessages,
	ExpectedBytesSent: func(p Params) float64 {
		return float64(p.Iterations * (p.Procs - 1) * p.MessageSize)
	},
	Expect: []Expectation{syncTrue,
		findSync("drilled into Gsend_message", "Gsend_message not found", "Gsend_message"),
		findSync("found MPI_Send", "MPI_Send not found", "MPI_Send"),
		findSync("identified the communicator", "communicator not identified", "/SyncObject/Message/comm-"),
		Expectation{Hyp: consultant.HypIO, Detail: "ExcessiveIOBlockingTime true (socket transport)",
			Problem: "IO hypothesis false under MPICH"}.under(mpi.MPICH),
	},
}, {
	Name: "big-message",
	Description: "Very large messages exchanged between two processes; " +
		"the bottleneck is rendezvous setup and transfer of each message.",
	Defaults:    Params{Iterations: 1500, MessageSize: 100000, Procs: 2},
	PaperParams: "1000 iterations, 100,000-byte messages, 2 processes",
	Make:        bigMessage,
	ExpectedBytesSent: func(p Params) float64 {
		return float64(2 * p.Iterations * p.MessageSize)
	},
	Expect: []Expectation{syncTrue,
		findSync("drilled into Gsend_message/Grecv_message", "send/recv wrappers not found", "Gsend_message", "Grecv_message"),
		findSync("found MPI_Send/MPI_Recv", "MPI p2p functions not found", "MPI_Send", "MPI_Recv"),
	},
}, {
	Name: "wrong-way",
	Description: "The receiver expects messages in the opposite order " +
		"from how the sender sends them, forcing unexpected-queue buildup.",
	Defaults:    Params{Iterations: 120, Messages: 600, MessageSize: 4, Procs: 2},
	PaperParams: "18,000 iterations, 1000 messages",
	Make:        wrongWay,
	ExpectedBytesSent: func(p Params) float64 {
		return float64(p.Iterations * p.Messages * p.MessageSize)
	},
	Expect: []Expectation{syncTrue,
		findSync("send_message/recv_message are the bottlenecks", "wrappers not found", "Gsend_message", "Grecv_message"),
		findSync("found MPI_Send/MPI_Recv", "p2p functions not found", "MPI_Send", "MPI_Recv"),
	},
}, {
	Name: "intensive-server",
	Description: "Clients repeatedly send a request and wait for the " +
		"reply from a deliberately slow rank-0 server.",
	Defaults:    Params{Iterations: 120, TimeToWaste: 1, Procs: 6, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "10,000 iterations, TIMETOWASTE=1, 6 processes on 3 nodes",
	Make:        intensiveServer,
	Expect: []Expectation{syncTrue,
		findSync("drilled through Grecv_message", "Grecv_message not found", "Grecv_message"),
		findSync("found MPI_Recv", "MPI_Recv not found", "MPI_Recv"),
		cpuTrue,
	},
}, {
	Name: "random-barrier",
	Description: "Each iteration a pseudo-random process wastes time " +
		"while the others wait in MPI_Barrier: a moving load imbalance.",
	Defaults:    Params{Iterations: 300, TimeToWaste: 5, Procs: 6, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "800 iterations, TIMETOWASTE=5, 6 processes on 3 nodes",
	Make:        randomBarrier,
	Expect: []Expectation{syncTrue,
		findSync("found MPI_Barrier", "MPI_Barrier not found", "MPI_Barrier"),
		cpuTrue,
		findCPU("pinpointed waste_time", "waste_time not found", "waste_time"),
		findSync("exposed PMPI_Sendrecv inside the barrier", "barrier internals not exposed", "MPI_Sendrecv").under(mpi.MPICH),
	},
}, {
	Name: "diffuse-procedure",
	Description: "bottleneckProcedure consumes one CPU's worth of time, " +
		"rotated round-robin across processes waiting in MPI_Barrier.",
	Defaults:    Params{Iterations: 500, Procs: 4, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "2000 iterations, 4 processes on 2 nodes",
	Make:        diffuseProcedure,
	Expect: []Expectation{syncTrue,
		findSync("found MPI_Barrier", "MPI_Barrier not found", "MPI_Barrier"),
		findCPU("found bottleneckProcedure with CPU threshold 0.2", "bottleneckProcedure not found", "bottleneckProcedure"),
	},
	CPUThreshold: 0.2,
}, {
	Name: "system-time",
	Description: "The program spends its time in system calls, which " +
		"the tool's default metrics do not measure (the suite's designed failure).",
	Defaults:    Params{Iterations: 400, Procs: 4, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "10,000 iterations, 4 processes on 2 nodes",
	Make:        systemTime,
	Expect: []Expectation{{Absent: true,
		Detail: "all hypotheses tested false (no system-time metrics)", Problem: "a hypothesis unexpectedly tested true"}},
	PaperResult: "Fail",
}, {
	Name: "hot-procedure",
	Description: "A single computational bottleneck in " +
		"bottleneckProcedure among twelve irrelevant procedures.",
	Defaults:    Params{Iterations: 500, Procs: 4, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "1,000,000 iterations, 4 processes on 2 nodes",
	Make:        hotProcedure,
	Expect: []Expectation{cpuTrue,
		findCPU("CPU bound in bottleneckProcedure", "bottleneckProcedure not found", "bottleneckProcedure"),
		{Hyp: consultant.HypCPU, Focus: []string{"irrelevantProcedure"}, Absent: true,
			Detail: "irrelevant procedures not implicated", Problem: "an irrelevantProcedure was implicated"},
	},
}, {
	Name: "sstwod",
	Description: "The Using-MPI 2-D Poisson solver: neighbour exchange " +
		"in exchng2 over MPI_Sendrecv plus an MPI_Allreduce per sweep.",
	Defaults:    Params{Iterations: 400, MessageSize: 8192, Procs: 4, WasteUnit: 10 * sim.Millisecond},
	PaperParams: "the book's example, run until convergence",
	Make:        sstwod,
	Expect: []Expectation{syncTrue,
		findSync("drilled into exchng2", "exchng2 not found", "exchng2"),
		findSync("found MPI_Sendrecv", "MPI_Sendrecv not found", "MPI_Sendrecv"),
		findSync("found MPI_Allreduce", "MPI_Allreduce not found", "MPI_Allreduce"),
	},
}}

const tagWork = 0

// smallMessages: clients stream tiny messages at a rank-0 server.
func smallMessages(p Params) mpi.Program {
	const mod = "smallmessages.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		if r.Rank() == 0 {
			total := p.Iterations * (r.Size() - 1)
			for i := 0; i < total; i++ {
				r.Call(mod, "Grecv_message", func() {
					c.Recv(r, nil, p.MessageSize, mpi.Byte, mpi.AnySource, tagWork)
				})
			}
			return
		}
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "Gsend_message", func() {
				c.Send(r, nil, p.MessageSize, mpi.Byte, 0, tagWork)
			})
		}
	}
}

// bigMessage: two ranks exchange large (rendezvous) messages.
func bigMessage(p Params) mpi.Program {
	const mod = "bigmessage.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		other := 1 - r.Rank()
		for i := 0; i < p.Iterations; i++ {
			if r.Rank() == 0 {
				r.Call(mod, "Gsend_message", func() {
					c.Send(r, nil, p.MessageSize, mpi.Byte, other, tagWork)
				})
				r.Call(mod, "Grecv_message", func() {
					c.Recv(r, nil, p.MessageSize, mpi.Byte, other, tagWork)
				})
			} else {
				r.Call(mod, "Grecv_message", func() {
					c.Recv(r, nil, p.MessageSize, mpi.Byte, other, tagWork)
				})
				r.Call(mod, "Gsend_message", func() {
					c.Send(r, nil, p.MessageSize, mpi.Byte, other, tagWork)
				})
			}
		}
	}
}

// wrongWay: rank 0 sends tags ascending; rank 1 receives them descending.
func wrongWay(p Params) mpi.Program {
	const mod = "wrongway.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < p.Iterations; i++ {
			if r.Rank() == 0 {
				r.Call(mod, "Gsend_message", func() {
					for m := 0; m < p.Messages; m++ {
						c.Send(r, nil, p.MessageSize, mpi.Byte, 1, m)
					}
				})
			} else {
				r.Call(mod, "Grecv_message", func() {
					// The wrong way: ask for the newest tag first, so the
					// receive blocks until the whole burst has arrived and
					// the unexpected queue holds Messages-1 entries.
					for m := p.Messages - 1; m >= 0; m-- {
						c.Recv(r, nil, p.MessageSize, mpi.Byte, 0, m)
					}
				})
			}
		}
	}
}

// intensiveServer: request/reply against a server that wastes time.
func intensiveServer(p Params) mpi.Program {
	const mod = "intensiveserver.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		n := r.Size()
		if r.Rank() == 0 {
			for i := 0; i < p.Iterations*(n-1); i++ {
				st, _ := c.Recv(r, nil, 4, mpi.Byte, mpi.AnySource, 1)
				r.Call(mod, "waste_time", func() { r.Compute(p.waste()) })
				c.Send(r, nil, 4, mpi.Byte, st.Source, 2)
			}
			return
		}
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "Gsend_message", func() {
				c.Send(r, nil, 4, mpi.Byte, 0, 1)
			})
			r.Call(mod, "Grecv_message", func() {
				c.Recv(r, nil, 4, mpi.Byte, 0, 2)
			})
		}
	}
}

// randomBarrier: a pseudo-random rank wastes, everyone barriers. The waster
// sequence is a deterministic hash so every rank agrees without
// communication, as the original uses a shared seed.
func randomBarrier(p Params) mpi.Program {
	const mod = "randombarrier.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		n := r.Size()
		for i := 0; i < p.Iterations; i++ {
			// Every process does the iteration's real work; one additionally
			// wastes. The work:waste ratio reproduces the paper's ≈61%
			// average inclusive synchronization time (Fig 18).
			r.Call(mod, "do_work", func() { r.Compute(3 * p.waste() / 10) })
			waster := int(uint32(i)*2654435761%uint32(n*7919)) % n
			if waster == r.Rank() {
				r.Call(mod, "waste_time", func() { r.Compute(p.waste()) })
			}
			c.Barrier(r)
		}
	}
}

// diffuseProcedure: the bottleneck procedure rotates round-robin, so it
// consumes exactly one CPU's worth across the application.
func diffuseProcedure(p Params) mpi.Program {
	const mod = "diffuseprocedure.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		n := r.Size()
		for i := 0; i < p.Iterations; i++ {
			if i%n == r.Rank() {
				r.Call(mod, "bottleneckProcedure", func() { r.Compute(p.WasteUnit) })
			}
			c.Barrier(r)
		}
	}
}

// systemTime: all the time goes to system calls; an occasional barrier keeps
// it a real MPI program.
func systemTime(p Params) mpi.Program {
	const mod = "systemtime.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "do_syscalls", func() { r.SystemCompute(p.WasteUnit) })
			if i%100 == 99 {
				c.Barrier(r)
			}
		}
	}
}

// hotProcedure: one hot procedure, twelve cold ones.
func hotProcedure(p Params) mpi.Program {
	const mod = "hotprocedure.c"
	var cold [12]string
	for k := range cold {
		cold[k] = fmt.Sprintf("irrelevantProcedure%d", k)
	}
	return func(r *mpi.Rank, _ []string) {
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "bottleneckProcedure", func() { r.Compute(p.WasteUnit) })
			for _, name := range cold {
				r.Call(mod, name, func() {
					r.Compute(p.WasteUnit / 1000)
				})
			}
		}
	}
}

// sstwod: ring-decomposed sweep with neighbour Sendrecv in exchng2 and a
// per-sweep Allreduce; a mild load imbalance makes communication the
// bottleneck, as in the book's tuning lesson.
func sstwod(p Params) mpi.Program {
	const mod = "sstwod.c"
	return func(r *mpi.Rank, _ []string) {
		c := r.World()
		n := r.Size()
		up := (r.Rank() + 1) % n
		down := (r.Rank() - 1 + n) % n
		base := p.WasteUnit / 4
		imbalanced := func(phase int, extra sim.Duration) {
			// Boundary-condition work moves around the decomposition, so
			// the halo exchange and the residual reduction both absorb
			// waiting time — the book's tuning lesson.
			d := base
			if phase%n == r.Rank() {
				d += extra
			}
			r.Compute(d)
		}
		for i := 0; i < p.Iterations; i++ {
			r.Call(mod, "compute", func() { imbalanced(i, 3*base) })
			r.Call(mod, "exchng2", func() {
				c.Sendrecv(r, nil, p.MessageSize, mpi.Byte, up, 4,
					nil, p.MessageSize, mpi.Byte, down, 4)
				c.Sendrecv(r, nil, p.MessageSize, mpi.Byte, down, 5,
					nil, p.MessageSize, mpi.Byte, up, 5)
			})
			r.Call(mod, "compute", func() { imbalanced(i+1, 2*base) })
			if _, err := c.Allreduce(r, []float64{1.0 / float64(i+1)}, mpi.Double, mpi.OpSum); err != nil {
				panic(err)
			}
		}
	}
}
