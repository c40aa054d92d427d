package main

import (
	"bytes"
	"container/heap"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"sort"
	"time"
)

// The calibration kernel is a fixed piece of work that uses nothing of the
// repository: allocation of linked nodes into a map and a sort of its keys,
// gob round trips with a SHA-256 over each, and a heap-driven event loop
// that allocates a small message per event. The harness runs it beside every
// set-up build and divides setup_s by the run's host factor, the kernel's
// fastest time over calibNominalS: setup_s is the one host time the driver
// bounds, and the sandbox's speed drifts by more than that bound (README
// "Noise"). Over a 35-minute log of pairs of a build and a kernel of this
// composition the kernel tracked about half of the drift: medians of ten-run
// sets stayed within 4.7% of each other with the factor and 9.6% without.
//
// calibNominalS is the kernel's fastest time on the quiet sandbox, so that
// setup_s reads in seconds of that machine. Changing the kernel or this
// constant rescales setup_s: it is part of the benchmark's definition.
const calibNominalS = 0.315

type calibNode struct {
	next *calibNode
	key  int
}

type calibRecord struct {
	Name  string
	Vals  []float64
	Attrs map[string]int
}

type calibEvent struct {
	at   int64
	rank int
	data []byte
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int            { return len(q) }
func (q calibQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x interface{}) { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// calibSink keeps the kernel's results alive so the compiler cannot drop
// the work.
var calibSink int

// calibrate runs the calibration kernel once and returns how long it took.
func calibrate() (time.Duration, error) {
	t0 := time.Now()
	sum := 0

	for round := 0; round < 2; round++ {
		nodes := map[int]*calibNode{}
		var head *calibNode
		x := 12345 + round
		for i := 0; i < 250000; i++ {
			x = x*1103515245 + 12345
			head = &calibNode{next: head, key: x & 0xfffff}
			nodes[head.key] = head
		}
		keys := make([]int, 0, len(nodes))
		for k := range nodes {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		sum += keys[len(keys)/2]
	}

	var buf bytes.Buffer
	for i := 0; i < 3000; i++ {
		buf.Reset()
		rec := calibRecord{Name: fmt.Sprintf("rec-%d", i), Vals: make([]float64, 200), Attrs: map[string]int{"a": i, "b": 2 * i, "c": 3 * i}}
		for j := range rec.Vals {
			rec.Vals[j] = float64(i*j) / 2
		}
		if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
			return 0, fmt.Errorf("calibration kernel: %w", err)
		}
		digest := sha256.Sum256(buf.Bytes())
		var back calibRecord
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			return 0, fmt.Errorf("calibration kernel: %w", err)
		}
		sum += int(digest[0]) + len(back.Vals)
	}

	const ranks = 6
	counters := []string{"msgs_sent", "bytes_sent", "sync_wait", "cpu_time", "io_wait"}
	stats := make([]map[string]float64, ranks)
	history := make([][]float64, ranks)
	queue := &calibQueue{}
	for r := range stats {
		stats[r] = map[string]float64{}
		heap.Push(queue, &calibEvent{at: int64(r), rank: r})
	}
	for n := 0; n < 600000; n++ {
		e := heap.Pop(queue).(*calibEvent)
		st := stats[e.rank]
		st[counters[n%len(counters)]] += float64(e.at & 7)
		st["bytes_recv"] += float64(len(e.data))
		if n%16 == 0 {
			history[e.rank] = append(history[e.rank], st["msgs_sent"])
		}
		heap.Push(queue, &calibEvent{at: e.at + int64(1+n%5), rank: (e.rank + 1 + n%3) % ranks, data: make([]byte, 4+n%29)})
	}
	for r := range history {
		sum += len(history[r])
	}

	calibSink = sum
	return time.Since(t0), nil
}
