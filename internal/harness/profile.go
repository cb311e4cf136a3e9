package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"wfq/internal/yield"
)

// Profile is a scheduler disturbance profile standing in for the paper's
// "system configurations" (CentOS / RedHat / Ubuntu machines, §4). The
// paper's finding is that OS scheduling policy changes the LF↔WF ranking;
// these profiles induce the same classes of interleaving differences on a
// single host: clean scheduling, aggressive preemption, and
// oversubscription with background load.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// GOMAXPROCS overrides the Go scheduler's processor count for the
	// duration of a run; 0 keeps the current setting.
	GOMAXPROCS int
	// YieldEvery makes each worker call runtime.Gosched after every
	// k-th queue operation, modelling a short scheduling quantum
	// (k=1 is maximal preemption churn); 0 disables.
	YieldEvery int
	// BackgroundLoad starts this many unrelated busy-spinning
	// goroutines for the duration of a run, modelling a loaded host.
	BackgroundLoad int
	// MidOp reschedules the calling thread at every midOpEvery-th KP
	// linearization point reached (yield.KPBeforeAppend and
	// yield.KPBeforeDeqTidCAS), so operations are suspended between
	// announcing and completing. Machines where the OS preempts threads
	// mid-operation (the paper's 16 threads on 8 cores) do this on their
	// own; the Go scheduler mostly switches at call boundaries, which
	// hides helping unless it is injected.
	MidOp bool
}

// midOpEvery is the MidOp period: one in seven KP linearization points.
const midOpEvery = 7

// Profiles returns the three standard profiles used by the figure
// reproductions, in the panel order (a), (b), (c) of Figures 7 and 8.
func Profiles() []Profile {
	return []Profile{
		{Name: "default"},
		{Name: "preempt", YieldEvery: 1},
		{Name: "oversub", BackgroundLoad: runtime.NumCPU()},
	}
}

// midop is the preempt profile plus mid-operation reschedules at one in
// midOpEvery KP linearization points: the disturbance under which the
// helping traffic behind Figure 9 is observable. It is not a figure
// panel, so Profiles omits it.
var midop = Profile{Name: "midop", YieldEvery: 1, MidOp: true}

// ProfileByName finds a standard profile or midop; the error names the
// valid profiles.
func ProfileByName(name string) (Profile, error) {
	var names []string
	for _, p := range append(Profiles(), midop) {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("harness: unknown profile %q (valid: %s)", name, strings.Join(names, ", "))
}

// apply activates the profile and returns a restore function. The restore
// function must be called exactly once, after the measured run finishes.
func (p Profile) apply() (restore func()) {
	prevProcs := 0
	if p.GOMAXPROCS > 0 {
		prevProcs = runtime.GOMAXPROCS(p.GOMAXPROCS)
	}
	var prevHook yield.Hook
	if p.MidOp {
		var n atomic.Uint64
		prevHook = yield.Set(func(pt yield.Point, _, _ int) {
			if (pt == yield.KPBeforeAppend || pt == yield.KPBeforeDeqTidCAS) && n.Add(1)%midOpEvery == 0 {
				runtime.Gosched()
			}
		})
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < p.BackgroundLoad; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for !stop.Load() {
				// Busy arithmetic with periodic yields so the
				// load shares the core instead of monopolizing
				// a P for a full quantum.
				for k := 0; k < 4096; k++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				runtime.Gosched()
			}
			sinkU64.Store(x)
		}()
	}
	return func() {
		stop.Store(true)
		wg.Wait()
		if p.MidOp {
			yield.Set(prevHook)
		}
		if p.GOMAXPROCS > 0 {
			runtime.GOMAXPROCS(prevProcs)
		}
	}
}

// sinkU64 defeats dead-code elimination of the background load; every
// spinner stores to it, so it is atomic.
var sinkU64 atomic.Uint64
