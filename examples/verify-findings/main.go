// Verify findings: the paper's own validation methodology (§5) as a
// workflow. It runs one program three ways — under the tool's Performance
// Consultant, under MPE/Jumpshot-style tracing, and with the histogram-export
// arithmetic — and cross-checks that the independent methods agree, exactly
// how the paper verified Paradyn's measurements against Jumpshot and manual
// calculations.
//
//	go run ./examples/verify-findings
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"pperf"
)

const (
	procs = 3
	iters = 500
	work  = 10 * time.Millisecond
)

// program is the intensive-server shape: rank 0 is busy, clients wait.
func program(r *pperf.Rank, _ []string) {
	c := r.World()
	if r.Rank() == 0 {
		for i := 0; i < iters*(r.Size()-1); i++ {
			req, _ := c.Recv(r, nil, 4, pperf.Byte, pperf.AnySource, 1)
			r.Call("server.c", "waste_time", func() { r.Compute(work) })
			c.Send(r, nil, 4, pperf.Byte, req.Source, 2)
		}
		return
	}
	for i := 0; i < iters; i++ {
		r.Call("client.c", "Grecv_message", func() {
			c.Send(r, nil, 4, pperf.Byte, 0, 1)
			c.Recv(r, nil, 4, pperf.Byte, 0, 2)
		})
	}
}

func main() {
	// --- Method 1: the tool's automated diagnosis --------------------------
	s, err := pperf.NewSession(pperf.Options{Impl: pperf.LAM, Nodes: 3, CPUsPerNode: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	s.Register("app", program)
	sync := s.MustEnable("sync_wait_inclusive", pperf.WholeProgram())
	if err := s.Launch("app", procs, nil); err != nil {
		log.Fatal(err)
	}
	pc := pperf.NewConsultant(s, pperf.DefaultConsultantConfig())
	if err := pc.Start(); err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	runtime := s.Eng.Now().Seconds()

	fmt.Println("Method 1 — Performance Consultant:")
	fmt.Print(pc.Render())

	// --- Method 2: histogram export and manual arithmetic (§5) -------------
	clientFrac := 0.0
	nClients := 0
	for _, p := range sync.Procs() {
		if strings.Contains(p, "{0}") {
			continue
		}
		clientFrac += sync.ProcHistogram(p).Total() / runtime
		nClients++
	}
	clientFrac /= float64(nClients)
	fmt.Printf("\nMethod 2 — exported histogram arithmetic:\n")
	fmt.Printf("  clients' average sync fraction: %.2f of wall time\n", clientFrac)
	csv := s.FE.ExportCSV(sync)
	fmt.Printf("  (CSV export: %d data rows, as the paper's authors worked from)\n",
		strings.Count(csv, "\n")-1)

	// --- Method 3: the independent MPE/Jumpshot comparator ----------------
	s2, err := pperf.NewSession(pperf.Options{Impl: pperf.LAM, Nodes: 3, CPUsPerNode: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer s2.Close()
	tr := pperf.AttachTracer(s2)
	s2.Register("app", program)
	if err := s2.Launch("app", procs, nil); err != nil {
		log.Fatal(err)
	}
	if err := s2.Run(); err != nil {
		log.Fatal(err)
	}
	avgRecv := tr.AvgConcurrency("MPI_Recv")
	fmt.Printf("\nMethod 3 — Jumpshot-style statistical preview:\n")
	fmt.Printf("  average processes in MPI_Recv: %.2f of %d\n", avgRecv, procs)
	fmt.Print(tr.StatisticsTable())

	// --- Cross-check -------------------------------------------------------
	fmt.Println("\nCross-check:")
	agree := pc.TopLevelTrue(pperf.HypSync) && clientFrac > 0.5 && avgRecv > float64(procs)-1.5
	fmt.Printf("  PC says sync-bound: %v; histograms say clients wait %.0f%%; "+
		"trace says ≈%.1f of %d procs in MPI_Recv\n",
		pc.TopLevelTrue(pperf.HypSync), clientFrac*100, avgRecv, procs)
	if agree {
		fmt.Println("  all three methods agree — the §5 verification result.")
	} else {
		fmt.Println("  DISAGREEMENT — investigate!")
	}
}
