package campaign

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// golden loads the committed golden snapshot — the schema contract every
// PR must keep parseable.
func golden(t *testing.T) *Doc {
	t.Helper()
	d, err := LoadFile(filepath.Join("testdata", "golden_campaign.json"))
	if err != nil {
		t.Fatalf("golden snapshot unreadable: %v", err)
	}
	return d
}

func TestGoldenSnapshotRoundTrip(t *testing.T) {
	d := golden(t)
	if d.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version %d, want %d", d.SchemaVersion, SchemaVersion)
	}
	if len(d.Cells) == 0 || d.Workload == "" || d.GOMAXPROCS == 0 {
		t.Fatalf("golden doc incomplete: %+v", d)
	}
	for _, c := range d.Cells {
		if c.OpsPerSecMedian <= 0 || c.OpsPerSecMin <= 0 || c.GOMAXPROCS <= 0 {
			t.Fatalf("cell %s missing gate-critical fields: %+v", c.Series, c)
		}
	}
	// Marshal → unmarshal must reproduce the document exactly: a field
	// rename or type change breaks every committed baseline.
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Doc
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*d, back) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, *d)
	}
}

func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	base := []*Doc{golden(t)}
	slowed, err := Degrade(base, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(base, slowed, GateOptions{Tolerance: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("gate passed an injected 40% slowdown")
	}
	if len(rep.Regressions) != len(base[0].Cells) {
		t.Fatalf("want every cell flagged (%d), got %d", len(base[0].Cells), len(rep.Regressions))
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "FAIL") || !strings.Contains(sum, "REGRESSION") {
		t.Fatalf("summary does not name the failure:\n%s", sum)
	}
	// Offending cells must be NAMED, with their full matrix coordinates.
	want := rep.Regressions[0].Key.String()
	if !strings.Contains(sum, want) {
		t.Fatalf("summary missing offending cell %s:\n%s", want, sum)
	}
	// The degraded side must not have touched the original.
	if base[0].Cells[0].OpsPerSecMedian == slowed[0].Cells[0].OpsPerSecMedian {
		t.Fatal("Degrade mutated its input")
	}
}

func TestGateToleratesSubThresholdJitter(t *testing.T) {
	base := []*Doc{golden(t)}
	jittered, err := Degrade(base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(base, jittered, GateOptions{Tolerance: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("gate failed on 5%% jitter under 25%% tolerance:\n%s", rep.Summary())
	}
	if rep.Compared != len(base[0].Cells) {
		t.Fatalf("compared %d cells, want %d", rep.Compared, len(base[0].Cells))
	}
}

func TestGateMinMetric(t *testing.T) {
	base := []*Doc{golden(t)}
	slowed, err := Degrade(base, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(base, slowed, GateOptions{Tolerance: 0.25, Metric: "min"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("min-metric gate passed an injected 40% slowdown")
	}
	if _, err := Compare(base, slowed, GateOptions{Metric: "mean"}); err == nil {
		t.Fatal("gate accepted the mean metric — it must not: the mean is the noise-sensitive statistic the gate exists to avoid")
	}
}

// TestGateVacuousComparisonFails: cells of another workload, or of
// another batch width (k=1 baseline, k=8 candidate), never match, and a
// comparison that matches nothing fails.
func TestGateVacuousComparisonFails(t *testing.T) {
	otherWorkload := golden(t)
	otherWorkload.Workload = "fifty"
	for i := range otherWorkload.Cells {
		otherWorkload.Cells[i].Workload = "fifty"
	}
	k1, k8 := golden(t), golden(t)
	k1.BatchK, k8.BatchK = 1, 8
	for _, tc := range []struct {
		name       string
		base, cand *Doc
	}{
		{"workload", golden(t), otherWorkload},
		{"batch width", k1, k8},
	} {
		rep, err := Compare([]*Doc{tc.base}, []*Doc{tc.cand}, GateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Compared != 0 || !rep.Failed() {
			t.Fatalf("%s: a comparison matching zero cells must fail, got compared=%d failed=%v",
				tc.name, rep.Compared, rep.Failed())
		}
		if len(rep.MissingInCandidate) == 0 || len(rep.MissingInBaseline) == 0 {
			t.Fatalf("%s: unmatched cells not reported", tc.name)
		}
	}
}

func TestDegradeRejectsBadFractions(t *testing.T) {
	base := []*Doc{golden(t)}
	for _, frac := range []float64{0, -0.1, 1, 1.5} {
		if _, err := Degrade(base, frac); err == nil {
			t.Errorf("Degrade(%v) accepted an out-of-range fraction", frac)
		}
	}
}

func TestLoadDirRejectsEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir of an empty dir must error: an empty baseline would make the gate pass vacuously")
	}
}

// TestGoldenSnapshotSelfGates: a snapshot written before the help,
// fairness, latency and blocking fields existed still loads and gates
// cleanly against itself — every cell matched, none regressed.
func TestGoldenSnapshotSelfGates(t *testing.T) {
	d := golden(t)
	rep, err := Compare([]*Doc{d}, []*Doc{d}, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() || rep.Compared != len(d.Cells) {
		t.Fatalf("golden self-gate: %s", rep.Summary())
	}
	for _, c := range d.Cells {
		if c.Samples != 0 || c.ThreadSpread != 0 || c.ScansPerOp != 0 || c.Delivered != 0 {
			t.Fatalf("pre-change cell %s decoded new fields: %+v", c.Series, c)
		}
	}
}
