// SLA: measure per-operation latency tails of the wait-free queue against
// the lock-free Michael–Scott baseline under a hostile scheduler — the
// situation the paper's introduction motivates ("strict deadlines for
// operation completion ... or heterogenous execution environments where
// some of the threads may perform much faster or slower than others").
//
// The demo runs the harness's latency workload (enqueue-dequeue pairs
// with every operation timed) under the oversub profile's background
// load, with each worker rescheduled every 16 pairs, and prints p50 /
// p99 / p99.9 / max per algorithm. Wait-freedom
// does not make the AVERAGE faster — the paper is explicit that the
// wait-free queue usually costs more — but a preempted wait-free
// operation can be finished by its peers, which is visible in the tail.
//
// Run with:
//
//	go run ./examples/sla [-iters 20000] [-threads 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"wfq/internal/harness"
)

func main() {
	iters := flag.Int("iters", 20000, "enqueue-dequeue pairs per thread")
	threads := flag.Int("threads", 8, "worker threads")
	flag.Parse()

	prof, err := harness.ProfileByName("oversub")
	if err != nil {
		log.Fatal(err)
	}
	prof.YieldEvery = 32 // a forced reschedule every 16 pairs
	algs := []harness.Algorithm{harness.LF(), harness.OptWF12(), harness.BaseWF()}
	fmt.Printf("per-operation latency under a preemption-heavy scheduler (%d threads, %d pairs each)\n\n",
		*threads, *iters)
	fmt.Printf("%-14s %10s %10s %10s %12s\n", "algorithm", "p50", "p99", "p99.9", "max")
	for _, alg := range algs {
		r, err := harness.RunMeasured(alg, harness.Config{
			Workload: harness.Latency, Threads: *threads, Iters: *iters, Profile: prof,
		})
		if err != nil {
			log.Fatal(err)
		}
		l := r.Latency
		fmt.Printf("%-14s %10s %10s %10s %12s\n", alg.Name, l.P50, l.P99, l.P999, l.Max)
	}
	fmt.Println("\nNote: absolute numbers depend on the host; the point of wait-freedom")
	fmt.Println("is the BOUND on steps per operation, which shows up in the tail ratio.")
}
