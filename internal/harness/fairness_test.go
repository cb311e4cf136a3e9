package harness

import "testing"

func TestMeasureFairnessBasics(t *testing.T) {
	r, err := RunMeasured(OptWF12(), Config{Workload: Pairs, Threads: 4, Iters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if r.ThreadSpread < 1 {
		t.Fatalf("spread %f < 1", r.ThreadSpread)
	}
	if r.ThreadCV < 0 {
		t.Fatalf("cv %f < 0", r.ThreadCV)
	}
	// One worker: nothing to be unfair to.
	r, err = RunMeasured(OptWF12(), Config{Workload: Pairs, Threads: 1, Iters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if r.ThreadSpread != 1 || r.ThreadCV != 0 {
		t.Fatalf("single worker: spread %f cv %f", r.ThreadSpread, r.ThreadCV)
	}
}

func TestMeasureFairnessValidation(t *testing.T) {
	if _, err := RunMeasured(LF(), Config{Threads: 0, Iters: 1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestFairnessAcrossAlgorithms(t *testing.T) {
	// Smoke: all main algorithms produce sane fairness numbers on every
	// workload; we do not assert WF < LF spreads on a small host (the Go
	// scheduler's own fairness dominates), only well-formedness.
	for _, alg := range []Algorithm{LF(), BaseWF(), OptWF12(), FastWF(), Mutex()} {
		for _, w := range []Workload{Pairs, Fifty, Latency} {
			r, err := RunMeasured(alg, Config{Workload: w, Threads: 4, Iters: 300})
			if err != nil {
				t.Fatalf("%s/%s: %v", alg.Name, w, err)
			}
			if r.ThreadSpread < 1 || r.ThreadCV < 0 {
				t.Fatalf("%s/%s: spread %f cv %f", alg.Name, w, r.ThreadSpread, r.ThreadCV)
			}
		}
	}
}
