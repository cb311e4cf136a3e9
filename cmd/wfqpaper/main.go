// Command wfqpaper regenerates the paper's evaluation figures
// (Kogan & Petrank, PPoPP 2011, §4) on the current machine.
//
// Usage:
//
//	wfqpaper [-fig 7|8|9|10|all] [-iters N] [-repeats N] [-threads lo:hi]
//	         [-maxexp E] [-chart] [-csv dir]
//
// Each figure is printed as an aligned table (one panel per scheduler
// profile for Figures 7–9), optionally followed by an ASCII chart, and
// optionally written as CSV files for external plotting.
//
// Figure 10 sweeps initial queue sizes 10^0..10^maxexp (default 6);
// -maxexp 7 matches the paper's 10^7 ceiling but needs several GiB.
// Its series are base WF / LF, opt WF (1+2) / LF and ring WF / LF;
// -repeats, when given, averages that many runs per size.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"wfq/internal/figures"
	"wfq/internal/report"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 10 or all")
	iters := flag.Int("iters", 0, "per-thread iterations (0 = scaled default)")
	repeats := flag.Int("repeats", 0, "averaged runs per data point (0 = default)")
	threads := flag.String("threads", "", "thread sweep as lo:hi (default 1,2,4,8,12,16)")
	chart := flag.Bool("chart", false, "print an ASCII chart after each table")
	csvDir := flag.String("csv", "", "write each panel as CSV into this directory")
	maxExp := flag.Int("maxexp", 6, "Figure 10: largest initial queue size as a power of ten (paper: 7)")
	flag.Parse()

	if *maxExp < 0 || *maxExp > 8 {
		fatal(fmt.Errorf("maxexp %d out of range [0,8]", *maxExp))
	}
	p := figures.DefaultParams()
	if *iters > 0 {
		p.Iters = *iters
	}
	if *repeats > 0 {
		p.Repeats = *repeats
	}
	if *threads != "" {
		lo, hi, err := parseRange(*threads)
		if err != nil {
			fatal(err)
		}
		p.Threads = nil
		for n := lo; n <= hi; n++ {
			p.Threads = append(p.Threads, n)
		}
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	emit := func(tag string, tabs ...*report.Table) {
		for i, tab := range tabs {
			fmt.Println(tab.String())
			if *chart {
				fmt.Println(tab.Chart(60))
			}
			if *csvDir != "" {
				name := fmt.Sprintf("fig%s_panel%d.csv", tag, i)
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
					fatal(err)
				}
				fmt.Printf("wrote %s\n\n", path)
			}
		}
	}

	if all || want["7"] {
		tabs, err := figures.Figure7(p)
		if err != nil {
			fatal(err)
		}
		emit("7", tabs...)
		fmt.Println("§4 commentary — opt WF (1+2) / LF completion-time ratio per panel:")
		for _, tab := range tabs {
			fmt.Println(figures.Ratio7(tab).String())
		}
	}
	if all || want["8"] {
		tabs, err := figures.Figure8(p)
		if err != nil {
			fatal(err)
		}
		emit("8", tabs...)
	}
	if all || want["9"] {
		tabs, err := figures.Figure9(p)
		if err != nil {
			fatal(err)
		}
		emit("9", tabs...)
	}
	if all || want["10"] {
		sp := figures.DefaultSpaceParams()
		sp.Sizes = figures.SpaceSizes(*maxExp)
		if *repeats > 0 {
			sp.Repeats = *repeats
		}
		tab, err := figures.Figure10(sp)
		if err != nil {
			fatal(err)
		}
		emit("10", tab)
	}
}

func parseRange(s string) (lo, hi int, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q, want lo:hi", s)
	}
	lo, err = strconv.Atoi(parts[0])
	if err != nil {
		return
	}
	hi, err = strconv.Atoi(parts[1])
	if err != nil {
		return
	}
	if lo < 1 || hi < lo {
		err = fmt.Errorf("bad range %q", s)
	}
	return
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfqpaper:", err)
	os.Exit(1)
}
