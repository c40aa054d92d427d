// Quickstart: write a small MPI program, run it under the performance tool,
// and let the Performance Consultant tell you where the time goes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"pperf"
)

func main() {
	// A simulated 3-node cluster with two CPUs per node, running the
	// LAM/MPI personality.
	s, err := pperf.NewSession(pperf.Options{Impl: pperf.LAM, Nodes: 3, CPUsPerNode: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// The application: rank 0 is a slow server; the other ranks wait on it.
	s.Register("app", func(r *pperf.Rank, _ []string) {
		world := r.World()
		const iters = 1200
		if r.Rank() == 0 {
			for i := 0; i < iters*(r.Size()-1); i++ {
				req, _ := world.Recv(r, nil, 1, pperf.Int, pperf.AnySource, 1)
				r.Call("server.c", "handle_request", func() {
					r.Compute(3 * time.Millisecond) // the planted bottleneck
				})
				world.Send(r, nil, 1, pperf.Int, req.Source, 2)
			}
			return
		}
		for i := 0; i < iters; i++ {
			r.Call("client.c", "do_request", func() {
				world.Send(r, nil, 1, pperf.Int, 0, 1)
				world.Recv(r, nil, 1, pperf.Int, 0, 2)
			})
		}
	})

	// Ask the tool to count message bytes while the program runs.
	bytes := s.MustEnable("msg_bytes_sent", pperf.WholeProgram())

	if err := s.Launch("app", 4, nil); err != nil {
		log.Fatal(err)
	}

	// Attach the Performance Consultant: it inserts instrumentation
	// dynamically, tests hypotheses, and drills into whatever is true.
	pc := pperf.NewConsultant(s, pperf.DefaultConsultantConfig())
	if err := pc.Start(); err != nil {
		log.Fatal(err)
	}

	if err := s.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("The Performance Consultant's findings:")
	fmt.Print(pc.Render())
	fmt.Printf("\nTotal message bytes sent: %.0f\n", bytes.Total())
	fmt.Println("\nResource hierarchy discovered at run time:")
	fmt.Print(s.FE.Hierarchy().Render())
}
