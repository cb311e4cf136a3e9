// Compare: run every queue implementation in the repository on the same
// workload and print a side-by-side table — a two-minute tour of the
// design space the paper navigates: blocking locks, the lock-free
// baseline, the wait-free variants, hazard-pointer reclamation, the
// universal construction, and the restricted-concurrency ancestors'
// general-purpose siblings.
//
// Run with:
//
//	go run ./examples/compare [-threads 4] [-iters 20000]
package main

import (
	"flag"
	"fmt"

	"wfq/internal/harness"
)

func main() {
	threads := flag.Int("threads", 4, "worker threads")
	iters := flag.Int("iters", 20000, "enqueue-dequeue pairs per thread")
	flag.Parse()

	cfg := harness.Config{
		Workload: harness.Pairs,
		Threads:  *threads,
		Iters:    *iters,
		Seed:     1,
	}
	fmt.Printf("enqueue-dequeue pairs, %d threads × %d iterations\n\n", *threads, *iters)
	fmt.Printf("%-18s %12s %14s  %s\n", "algorithm", "time", "ops/sec", "progress guarantee")
	guarantees := map[string]string{
		"LF":                  "lock-free",
		"LF+HP":               "lock-free, no GC needed",
		"base WF":             "wait-free",
		"opt WF (1)":          "wait-free",
		"opt WF (2)":          "wait-free",
		"opt WF (1+2)":        "wait-free",
		"fast WF":             "wait-free (lock-free fast path)",
		"fast WF (arena)":     "wait-free (fast path, arena nodes)",
		"fast WF+HP":          "wait-free (fast path), no GC needed",
		"sharded WF":          "wait-free (per-shard FIFO)",
		"sharded WF+HP":       "wait-free (per-shard FIFO), no GC",
		"ring WF":             "wait-free (bounded helping, FAA ring, 0 allocs/op)",
		"ring LF":             "lock-free (helping off, FAA ring segments)",
		"sharded ring WF":     "wait-free (per-shard FIFO, FAA ring segments)",
		"blocking WF":         "wait-free ops, parking consumers",
		"blocking sharded WF": "wait-free ops (per-shard FIFO), parking consumers",
		"blocking ring WF":    "wait-free ops (ring segments), parking consumers",
		"opt WF (1+2) rnd":    "wait-free (probabilistic)",
		"base WF+HP":          "wait-free, no GC needed",
		"universal WF":        "wait-free (generic, unbounded log)",
		"2-lock":              "blocking",
		"mutex":               "blocking",
	}
	for _, alg := range harness.AllAlgorithms() {
		d, err := harness.Run(alg, cfg)
		if err != nil {
			fmt.Printf("%-18s error: %v\n", alg.Name, err)
			continue
		}
		ops := float64(2 * *iters * *threads)
		fmt.Printf("%-18s %12v %14.0f  %s\n", alg.Name, d, ops/d.Seconds(), guarantees[alg.Name])
	}
}
