package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// childRun is what one child process reports: the rep results summed over
// its loops, its allocation totals and peak RSS at exit, and (filled in by
// the parent from the process state) its wall time and CPU time.
type childRun struct {
	repResult
	// Loops is how many times the child ran the rep body; sums (Ops,
	// ArtifactBytes, Counts, Attempted) cover all of them.
	Loops    int     `json:"loops"`
	AllocMB  float64 `json:"alloc_mb"`
	MallocsK float64 `json:"mallocs_k"`

	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	RSSMB float64 `json:"rss_mb"`
}

// childMain is `bench -child ...`: run one workload repetition (or, for the
// attribution pass, a few back to back under a CPU profile) and print the
// result as one JSON object. One process per repetition keeps heap state
// from leaking between reps and lets the parent read wall, CPU and RSS from
// the process itself.
func childMain(args []string) int {
	fs := flag.NewFlagSet("bench -child", flag.ContinueOnError)
	var (
		workload   = fs.String("workload", "", "workload to run")
		variant    = fs.String("variant", "", "ablation variant (empty = the full workload)")
		seed       = fs.Uint64("seed", 7, "benchmark seed the fixtures were built for")
		fixtures   = fs.String("fixtures", "", "fixture directory built by the parent")
		tmp        = fs.String("tmp", "", "scratch directory for this child")
		spans      = fs.Bool("spans", false, "record spans around the calls into each layer")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the reps here")
		loops      = fs.Int("loops", 1, "run the rep body this many times")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fixtures == "" || *tmp == "" || *loops < 1 {
		fmt.Fprintln(os.Stderr, "bench child: -fixtures, -tmp and -loops >= 1 are required")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
	}

	out := childRun{Loops: *loops}
	for l := 0; l < *loops; l++ {
		var sp *spanRec
		if *spans {
			sp = newSpanRec(fmt.Sprintf("%s#%d", *workload, l))
		}
		res, err := runRep(*workload, *variant, &fullScale, *seed, *fixtures, filepath.Join(*tmp, fmt.Sprintf("loop%d", l)), sp)
		if err != nil {
			pprof.StopCPUProfile()
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		out.merge(res)
	}
	pprof.StopCPUProfile()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.AllocMB = float64(ms.TotalAlloc) / 1e6
	out.MallocsK = float64(ms.Mallocs) / 1e3
	out.RSSMB = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(&out); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// peakRSSMB is this process's resident-set high-water mark. It is read from
// /proc/self/status rather than rusage: ru_maxrss is inherited through
// fork+exec, so a child of a larger parent would report the parent's peak.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// merge folds one more loop's result into the child's totals. Loops of one
// child share seed and fixtures, so their digests must agree.
func (c *childRun) merge(r *repResult) {
	if c.Digest == "" {
		c.repResult = *r
		return
	}
	c.Ops += r.Ops
	c.LatMS = append(c.LatMS, r.LatMS...)
	c.Attempted += r.Attempted
	c.Failed += r.Failed
	c.Failures = append(c.Failures, r.Failures...)
	c.ArtifactBytes += r.ArtifactBytes
	for k, v := range r.Counts {
		c.Counts[k] += v
	}
	for k, v := range r.Maxes {
		if v > c.Maxes[k] {
			c.Maxes[k] = v
		}
	}
	c.Spans = append(c.Spans, r.Spans...)
	if r.Digest != c.Digest {
		c.Attempted++
		c.Failed++
		c.Failures = append(c.Failures, "result digest differs between loops of one child")
	}
}
