// Package figures regenerates every figure of the paper's evaluation
// (§4): the two throughput comparisons (Figures 7 and 8), the
// optimization ablation (Figure 9), and the space overhead curve
// (Figure 10). Each generator returns report.Tables whose rows/series
// match the paper's axes, so the command-line tools and EXPERIMENTS.md
// can print paper-vs-measured side by side.
package figures

import (
	"fmt"

	"wfq/internal/harness"
	"wfq/internal/report"
)

// Params scales the experiments. The paper ran 1,000,000 iterations per
// thread on 8 hardware cores; the defaults here are sized for a small CI
// machine and can be raised with flags.
type Params struct {
	// Iters is the per-thread iteration count.
	Iters int
	// Repeats is the number of averaged runs per data point (10 in
	// the paper).
	Repeats int
	// Threads is the sweep axis (1..16 in the paper).
	Threads []int
	// Profiles are the scheduler profiles standing in for the paper's
	// three machines; nil selects harness.Profiles().
	Profiles []harness.Profile
}

// DefaultParams returns parameters that complete in roughly a minute per
// figure on a 1-core host while preserving the figures' shapes.
func DefaultParams() Params {
	return Params{
		Iters:   20000,
		Repeats: 3,
		Threads: []int{1, 2, 4, 8, 12, 16},
	}
}

func (p Params) profiles() []harness.Profile {
	if p.Profiles != nil {
		return p.Profiles
	}
	return harness.Profiles()
}

// sweepTable runs one panel (one profile) of a throughput figure.
func sweepTable(title string, algs []harness.Algorithm, w harness.Workload, p Params, prof harness.Profile) (*report.Table, error) {
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.Name
	}
	tab := report.NewTable(title, "threads", "sec", names)
	pts, err := harness.Sweep(algs, p.Threads, harness.Config{
		Workload: w,
		Iters:    p.Iters,
		Seed:     1,
		Profile:  prof,
	}, p.Repeats)
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		tab.Set(fmt.Sprintf("%d", pt.Threads), pt.Algorithm,
			report.Cell{Value: pt.Summary.Mean, Std: pt.Summary.Std})
	}
	return tab, nil
}

// Figure7 reproduces the enqueue-dequeue-pairs completion-time panels:
// series LF, base WF, opt WF (1+2); one table per scheduler profile.
func Figure7(p Params) ([]*report.Table, error) {
	var out []*report.Table
	for _, prof := range p.profiles() {
		title := fmt.Sprintf("Figure 7 (%s profile): enqueue-dequeue pairs, total completion time", prof.Name)
		tab, err := sweepTable(title, harness.Figure7Algorithms(), harness.Pairs, p, prof)
		if err != nil {
			return nil, err
		}
		out = append(out, tab)
	}
	return out, nil
}

// Figure8 reproduces the 50%-enqueues panels (same series as Figure 7,
// queue pre-filled with 1000 elements, one op per iteration).
func Figure8(p Params) ([]*report.Table, error) {
	var out []*report.Table
	for _, prof := range p.profiles() {
		title := fmt.Sprintf("Figure 8 (%s profile): 50%% enqueues, total completion time", prof.Name)
		tab, err := sweepTable(title, harness.Figure7Algorithms(), harness.Fifty, p, prof)
		if err != nil {
			return nil, err
		}
		out = append(out, tab)
	}
	return out, nil
}

// Figure9 reproduces the optimization ablation on the pairs workload:
// series base WF, opt WF (1+2), opt WF (1), opt WF (2). The paper shows
// two panels (CentOS, RedHat); we emit one per profile, and callers who
// want the paper's two-panel layout pass two profiles.
func Figure9(p Params) ([]*report.Table, error) {
	var out []*report.Table
	for _, prof := range p.profiles() {
		title := fmt.Sprintf("Figure 9 (%s profile): optimization impact, enqueue-dequeue pairs", prof.Name)
		tab, err := sweepTable(title, harness.Figure9Algorithms(), harness.Pairs, p, prof)
		if err != nil {
			return nil, err
		}
		out = append(out, tab)
	}
	return out, nil
}

// SpaceParams scales Figure 10.
type SpaceParams struct {
	// Sizes is the initial-queue-size axis (10^0..10^7 in the paper).
	Sizes []int
	// Repeats averages this many runs per cell.
	Repeats int
	// Config carries threads/samples/interval.
	Config harness.SpaceConfig
}

// SpaceSizes returns the powers of ten 10^0..10^maxExp.
func SpaceSizes(maxExp int) []int {
	sizes := []int{1}
	for e := 1; e <= maxExp; e++ {
		sizes = append(sizes, sizes[e-1]*10)
	}
	return sizes
}

// DefaultSpaceParams covers 10^0..10^6 (10^7 needs several GiB of nodes;
// raise it on big hosts), 8 threads and 9 GC samples as in the paper.
func DefaultSpaceParams() SpaceParams {
	return SpaceParams{
		Sizes:   SpaceSizes(6),
		Repeats: 1,
		Config:  harness.DefaultSpaceConfig(0),
	}
}

// Figure10 reproduces the live-heap ratio series base-WF/LF and
// opt-WF(1+2)/LF as a function of the initial queue size, plus
// ring-WF/LF: the ring's slot segments against the paper's per-node
// overhead, on the figure that asks the space question.
func Figure10(p SpaceParams) (*report.Table, error) {
	tab := report.NewTable(
		fmt.Sprintf("Figure 10: live space size ratio vs LF (enqueue-dequeue pairs, %d threads)", p.Config.Threads),
		"queue size", "ratio",
		[]string{"base WF / LF", "opt WF (1+2) / LF", "ring WF / LF"})
	pts, err := harness.SpaceSweep(p.Sizes, p.Config, p.Repeats)
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		if pt.Algorithm == "LF" {
			continue // the LF row defines the denominator only
		}
		tab.Set(sizeLabel(pt.InitialSize), pt.Algorithm+" / LF", report.Cell{Value: pt.Ratio})
	}
	return tab, nil
}

// sizeLabel renders 10000 as "10^4" like the paper's x-axis, falling back
// to plain decimal for non-powers.
func sizeLabel(n int) string {
	if n < 1 {
		return fmt.Sprintf("%d", n)
	}
	e := 0
	v := n
	for v%10 == 0 {
		v /= 10
		e++
	}
	if v == 1 {
		return fmt.Sprintf("10^%d", e)
	}
	return fmt.Sprintf("%d", n)
}

// Ratio7 derives the §4 commentary series from a Figure 7 panel: the
// opt-WF(1+2)/LF completion-time ratio per thread count (the paper quotes
// ≈3 on RedHat, decreasing toward ≈2 on Ubuntu).
func Ratio7(tab *report.Table) *report.Table {
	out := report.NewTable(tab.Title+" — opt WF (1+2) / LF ratio", "threads", "x", []string{"ratio"})
	for _, x := range tab.Rows() {
		lf, ok1 := tab.Get(x, "LF")
		wf, ok2 := tab.Get(x, "opt WF (1+2)")
		if ok1 && ok2 && lf.Value > 0 {
			out.Set(x, "ratio", report.Cell{Value: wf.Value / lf.Value})
		}
	}
	return out
}
