package figures

import (
	"strings"
	"testing"

	"wfq/internal/harness"
	"wfq/internal/report"
)

// tinyParams keeps the figure generators fast enough for unit tests.
func tinyParams() Params {
	return Params{
		Iters:    200,
		Repeats:  1,
		Threads:  []int{1, 2},
		Profiles: []harness.Profile{{Name: "default"}},
	}
}

func TestFigure7Shape(t *testing.T) {
	tabs, err := Figure7(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 {
		t.Fatalf("%d panels", len(tabs))
	}
	tab := tabs[0]
	if !strings.Contains(tab.Title, "Figure 7") {
		t.Fatalf("title %q", tab.Title)
	}
	for _, x := range []string{"1", "2"} {
		for _, s := range []string{"LF", "base WF", "opt WF (1+2)"} {
			c, ok := tab.Get(x, s)
			if !ok || c.Value <= 0 {
				t.Fatalf("cell (%s,%s) = (%+v,%v)", x, s, c, ok)
			}
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	tabs, err := Figure8(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || !strings.Contains(tabs[0].Title, "Figure 8") {
		t.Fatalf("panels %d", len(tabs))
	}
	if len(tabs[0].Rows()) != 2 {
		t.Fatalf("rows %v", tabs[0].Rows())
	}
}

func TestFigure9Shape(t *testing.T) {
	tabs, err := Figure9(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	for _, s := range []string{"base WF", "opt WF (1)", "opt WF (2)", "opt WF (1+2)"} {
		if _, ok := tab.Get("1", s); !ok {
			t.Fatalf("missing series %q", s)
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("space probe is slow under -short")
	}
	p := SpaceParams{
		Sizes:   []int{1, 100000},
		Repeats: 1,
		Config:  harness.SpaceConfig{Threads: 2, Samples: 3, Interval: 0},
	}
	tab, err := Figure10(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Rows()
	if len(rows) != 2 || rows[0] != "10^0" || rows[1] != "10^5" {
		t.Fatalf("rows %v", rows)
	}
	big, ok := tab.Get("10^5", "base WF / LF")
	if !ok || big.Value <= 1.0 {
		t.Fatalf("large-queue WF/LF ratio %v (ok=%v): per-node overhead invisible", big, ok)
	}
	if r, ok := tab.Get("10^5", "ring WF / LF"); !ok || r.Value <= 0 {
		t.Fatalf("ring WF / LF series: %v (ok=%v)", r, ok)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{1: "10^0", 10: "10^1", 100: "10^2", 1000000: "10^6", 42: "42", 0: "0"}
	for n, want := range cases {
		if got := sizeLabel(n); got != want {
			t.Fatalf("sizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRatio7(t *testing.T) {
	tab := report.NewTable("t", "threads", "sec", []string{"LF", "opt WF (1+2)"})
	tab.Set("1", "LF", report.Cell{Value: 2})
	tab.Set("1", "opt WF (1+2)", report.Cell{Value: 6})
	r := Ratio7(tab)
	c, ok := r.Get("1", "ratio")
	if !ok || c.Value != 3 {
		t.Fatalf("(%+v,%v)", c, ok)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Iters <= 0 || p.Repeats <= 0 || len(p.Threads) == 0 {
		t.Fatalf("%+v", p)
	}
	sp := DefaultSpaceParams()
	if len(sp.Sizes) != 7 || sp.Sizes[0] != 1 || sp.Sizes[6] != 1000000 {
		t.Fatalf("sizes %v", sp.Sizes)
	}
	if sp.Config.Threads != 8 || sp.Config.Samples != 9 {
		t.Fatalf("space config %+v", sp.Config)
	}
}
