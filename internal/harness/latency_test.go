package harness

import (
	"testing"
	"time"

	"wfq/internal/yield"
)

func TestMeasureLatencyBasics(t *testing.T) {
	for _, alg := range []Algorithm{LF(), OptWF12()} {
		r, err := RunMeasured(alg, Config{Workload: Latency, Threads: 3, Iters: 500})
		if err != nil {
			t.Fatal(err)
		}
		l := r.Latency
		if l.Samples != 3*500*2 {
			t.Fatalf("%s: samples %d", alg.Name, l.Samples)
		}
		if l.P50 <= 0 || l.P99 < l.P50 || l.P999 < l.P99 || l.Max < l.P999 {
			t.Fatalf("%s: non-monotone percentiles: %+v", alg.Name, l)
		}
	}
}

// TestMeasureLatencySampling pins which runs carry a latency sample:
// the Latency workload times every operation, the untimed workloads
// record nothing.
func TestMeasureLatencySampling(t *testing.T) {
	r, err := RunMeasured(LF(), Config{Workload: Latency, Threads: 2, Iters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency.Samples != 2*1000*2 {
		t.Fatalf("samples %d, want one per operation", r.Latency.Samples)
	}
	r, err = RunMeasured(LF(), Config{Workload: Pairs, Threads: 2, Iters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency != (Percentiles{}) {
		t.Fatalf("untimed pairs run carries latencies: %+v", r.Latency)
	}
}

func TestMeasureLatencyUnderProfile(t *testing.T) {
	for _, name := range []string{"preempt", "midop"} {
		prof, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunMeasured(BaseWF(), Config{Workload: Latency, Threads: 2, Iters: 300, Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if r.Latency.Max <= 0 || r.Latency.Max > time.Minute {
			t.Fatalf("%s: implausible max %v", name, r.Latency.Max)
		}
	}
}

// TestMidOpProfileRestoresHook: the midop profile installs its
// reschedule hook for the run only, and the hook actually fires inside
// the KP engine's linearization windows.
func TestMidOpProfileRestoresHook(t *testing.T) {
	prof, err := ProfileByName("midop")
	if err != nil {
		t.Fatal(err)
	}
	if !prof.MidOp || prof.YieldEvery == 0 {
		t.Fatalf("midop profile %+v", prof)
	}
	if yield.Enabled() {
		t.Fatal("a yield hook is installed before the run")
	}
	if _, err := RunMeasured(OptWF12(), Config{Workload: Pairs, Threads: 2, Iters: 200, Profile: prof}); err != nil {
		t.Fatal(err)
	}
	if yield.Enabled() {
		t.Fatal("midop hook not removed after the run")
	}
}

func TestMeasureLatencyValidation(t *testing.T) {
	if _, err := RunMeasured(LF(), Config{Workload: Latency, Threads: 0, Iters: 1}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := RunMeasured(LF(), Config{Workload: Latency, Threads: 1, Iters: 0}); err == nil {
		t.Fatal("zero iters accepted")
	}
}

func TestLFHPAlgorithm(t *testing.T) {
	a, ok := ByName("LF+HP")
	if !ok {
		t.Fatal("LF+HP not registered")
	}
	q := a.New(2)
	q.Enqueue(0, 3)
	if v, ok := q.Dequeue(1); !ok || v != 3 {
		t.Fatalf("(%d,%v)", v, ok)
	}
}
