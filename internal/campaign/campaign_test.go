package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLiveTinyMatrix drives the full pipeline — matrix run, per-cell
// GOMAXPROCS stamping, snapshot write/load round-trip, chart rendering —
// on a matrix small enough for the unit-test budget.
func TestLiveTinyMatrix(t *testing.T) {
	var logs []string
	docs, err := Run(Spec{
		Variants:  []string{"fast WF"},
		Workloads: []string{"pairs"},
		Threads:   []int{1, 2},
		Procs:     []int{1, 2},
		Iters:     300,
		Repeats:   1,
		Logf:      func(f string, a ...any) { logs = append(logs, strings.TrimSpace(f)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("want 2 docs (pairs g1, pairs g2), got %d", len(docs))
	}
	for _, d := range docs {
		if len(d.Cells) != 2 {
			t.Fatalf("doc %s: want 2 cells, got %d", d.Campaign, len(d.Cells))
		}
		for _, c := range d.Cells {
			// The effective GOMAXPROCS must be the per-document override,
			// not the process-level value — the stamping bug this PR fixes.
			if c.GOMAXPROCS != d.GOMAXPROCS {
				t.Errorf("cell [%s threads=%d]: effective gomaxprocs %d, want %d",
					c.Series, c.Threads, c.GOMAXPROCS, d.GOMAXPROCS)
			}
			if want := c.Threads > d.GOMAXPROCS; c.Oversubscribed != want {
				t.Errorf("cell [%s threads=%d g=%d]: oversubscribed=%v, want %v",
					c.Series, c.Threads, d.GOMAXPROCS, c.Oversubscribed, want)
			}
			if c.OpsPerSecMedian <= 0 || c.OpsPerSecMin <= 0 || c.OpsPerSec <= 0 {
				t.Errorf("cell [%s threads=%d]: non-positive throughput %+v", c.Series, c.Threads, c)
			}
		}
	}
	// The oversubscribed cell (threads=2, g=1) must have been warned about.
	warned := false
	for _, l := range logs {
		if strings.Contains(l, "WARNING") && strings.Contains(l, "oversubscribed") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no oversubscription warning logged; logs: %q", logs)
	}

	dir := t.TempDir()
	paths, err := WriteSnapshots(dir, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("want 2 snapshot files, got %v", paths)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// LoadDir sorts by filename, which matches g1 < g2 here.
	if !reflect.DeepEqual(docs, back) {
		t.Fatal("snapshot write/load round-trip mismatch")
	}

	charts, err := WriteCharts(dir, docs)
	if err != nil {
		t.Fatal(err)
	}
	wantCharts := []string{
		"CAMPAIGN_pairs_allocs.svg",
		"CAMPAIGN_pairs_fasthit.svg",
		"CAMPAIGN_pairs_g1_ops.svg",
		"CAMPAIGN_pairs_g2_ops.svg",
		"CAMPAIGN_pairs_scaling.svg",
	}
	var got []string
	for _, p := range charts {
		got = append(got, filepath.Base(p))
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(buf), "<svg ") {
			t.Errorf("%s does not start with <svg", p)
		}
	}
	if !reflect.DeepEqual(got, wantCharts) {
		t.Fatalf("charts %v, want %v", got, wantCharts)
	}
}

// TestBatchItersNormalization pins the element-normalized budget: on the
// batch workloads Iters counts elements, so iterations scale down by the
// batch width and every cell moves the same volume. Each width gets its
// own document.
func TestBatchItersNormalization(t *testing.T) {
	docs, err := Run(Spec{
		Variants:  []string{"fast WF"},
		Workloads: []string{"batchpairs"},
		Threads:   []int{1},
		Procs:     []int{1},
		Iters:     64,
		Repeats:   1,
		BatchKs:   []int{1, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("want one doc per width, got %d", len(docs))
	}
	if a, b := SnapshotName(docs[0]), SnapshotName(docs[1]); a == b {
		t.Fatalf("both widths serialize to %s", a)
	}
	for i, want := range []struct{ k, iters int }{{1, 64}, {8, 8}} {
		d := docs[i]
		if d.BatchK != want.k || d.Iters != want.iters {
			t.Fatalf("doc %d: want batch_k=%d iters=%d, got batch_k=%d iters=%d",
				i, want.k, want.iters, d.BatchK, d.Iters)
		}
		c := d.Cells[0]
		if c.Iters != want.iters || c.OpsPerIter != 2*want.k {
			t.Fatalf("doc %d: want cell iters=%d ops_per_iter=%d (64 elements / k=%d, 2k ops per iter), got iters=%d ops_per_iter=%d",
				i, want.iters, 2*want.k, want.k, c.Iters, c.OpsPerIter)
		}
	}
}

// TestRemeasureMatchesBaselineKeys pins the live-gate contract: every
// baseline cell key must come back from a re-measurement, so Compare
// never silently skips cells.
func TestRemeasureMatchesBaselineKeys(t *testing.T) {
	base, err := Run(Spec{
		Variants:  []string{"fast WF", "ring WF"},
		Workloads: []string{"pairs", "batchpairs"},
		Threads:   []int{1, 2},
		Procs:     []int{1},
		Iters:     300,
		Repeats:   1,
		BatchKs:   []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cand, err := Remeasure(base, 100, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range cand {
		if d.BatchK != base[i].BatchK || d.Iters != 100 {
			t.Fatalf("%s re-measured at batch_k=%d iters=%d, want batch_k=%d iters=100",
				SnapshotName(base[i]), d.BatchK, d.Iters, base[i].BatchK)
		}
	}
	rep, err := Compare(base, cand, GateOptions{Tolerance: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compared != 8 || len(rep.MissingInCandidate) != 0 {
		t.Fatalf("re-measurement lost cells: compared=%d missing=%v",
			rep.Compared, rep.MissingInCandidate)
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	base := Spec{
		Variants: []string{"fast WF"}, Workloads: []string{"pairs"},
		Threads: []int{1}, Procs: []int{1}, Iters: 10, Repeats: 1,
	}
	bad := base
	bad.Variants = []string{"no such queue"}
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "no such queue") {
		t.Errorf("unknown variant not rejected by name: %v", err)
	} else if !strings.Contains(err.Error(), "ring WF") {
		t.Errorf("unknown-variant error does not list the valid names: %v", err)
	}
	bad = base
	bad.Profile = "no such profile"
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "preempt") {
		t.Errorf("unknown-profile error does not list the valid names: %v", err)
	}
	bad = base
	bad.Workloads = []string{"nope"}
	if _, err := Run(bad); err == nil {
		t.Error("unknown workload not rejected")
	}
	bad = base
	bad.Procs = []int{0}
	if _, err := Run(bad); err == nil {
		t.Error("zero GOMAXPROCS not rejected")
	}
}

func TestWorkloadNamesRoundTrip(t *testing.T) {
	for _, name := range []string{"pairs", "fifty", "batchpairs", "batchenq"} {
		w, err := ParseWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := WorkloadShort(w); got != name {
			t.Errorf("WorkloadShort(ParseWorkload(%q)) = %q", name, got)
		}
	}
}

// TestLatencyCell: the latency workload times every operation, and its
// cell carries ordered percentiles next to the usual throughput fields.
func TestLatencyCell(t *testing.T) {
	docs, err := Run(Spec{
		Variants: []string{"opt WF (1+2)"}, Workloads: []string{"latency"},
		Threads: []int{2}, Procs: []int{2}, Iters: 500, Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := docs[0].Cells[0]
	if c.Workload != "latency" || c.Samples != 2*2*500 {
		t.Fatalf("cell %+v: want 2000 samples of workload latency", c)
	}
	if !(0 < c.P50Ns && c.P50Ns <= c.P99Ns && c.P99Ns <= c.P999Ns && c.P999Ns <= c.MaxNs) {
		t.Fatalf("percentiles not ordered: p50=%d p99=%d p999=%d max=%d", c.P50Ns, c.P99Ns, c.P999Ns, c.MaxNs)
	}
	if c.OpsPerSecMedian <= 0 || c.ThreadSpread < 1 {
		t.Fatalf("cell %+v: missing throughput or fairness", c)
	}
}

// TestHelpCountersPerOp: a metered KP variant reports its help traffic
// per operation; the unmetered LF baseline omits the fields entirely.
func TestHelpCountersPerOp(t *testing.T) {
	docs, err := Run(Spec{
		Variants: []string{"opt WF (1+2)", "LF"}, Workloads: []string{"pairs"},
		Threads: []int{2}, Procs: []int{2}, Iters: 2000, Repeats: 1, Profile: "midop",
	})
	if err != nil {
		t.Fatal(err)
	}
	wf, lf := docs[0].Cells[0], docs[0].Cells[1]
	if wf.ScansPerOp <= 0 || wf.TailFixesPerOp <= 0 || wf.HeadFixesPerOp <= 0 {
		t.Fatalf("opt WF (1+2) help counters missing: %+v", wf)
	}
	buf, err := json.Marshal(lf)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scans_per_op", "helps_per_op", "append_cas_fail_per_op", "desc_cas_fail_per_op", "tail_fixes_per_op", "head_fixes_per_op"} {
		if strings.Contains(string(buf), key) {
			t.Errorf("LF cell carries %s: %s", key, buf)
		}
	}
}

// TestParkCellConservesAndRemeasures: a park cell delivers everything
// produced with a delivery-latency sample, and the live gate's
// re-measurement dispatches it through Run like any other cell.
func TestParkCellConservesAndRemeasures(t *testing.T) {
	if testing.Short() {
		t.Skip("blocking cells run for seconds")
	}
	base, err := Run(Spec{
		Variants: []string{"blocking WF"}, Workloads: []string{"park"},
		Threads: []int{1}, Procs: []int{2}, Iters: 1, Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := base[0].Cells[0]
	if c.Workload != "park" || c.Produced == 0 || c.Delivered != c.Produced || c.Samples == 0 {
		t.Fatalf("park cell %+v: want delivered == produced > 0 and a latency sample", c)
	}
	if c.OpsPerSecMedian <= 0 || c.P50Ns <= 0 || c.MaxNs < c.P99Ns {
		t.Fatalf("park cell %+v: missing rate or percentiles", c)
	}
	cand, err := Remeasure(base, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(base, cand, GateOptions{Tolerance: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compared != 1 {
		t.Fatalf("park cell not re-measured: %s", rep.Summary())
	}
}

// TestBlockingWorkloadNeedsLifecycle: spin and park reject a variant
// without the blocking/lifecycle API by name.
func TestBlockingWorkloadNeedsLifecycle(t *testing.T) {
	_, err := Run(Spec{
		Variants: []string{"LF"}, Workloads: []string{"spin"},
		Threads: []int{1}, Procs: []int{1}, Iters: 1, Repeats: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "LF") {
		t.Fatalf("spin on LF: %v", err)
	}
}
