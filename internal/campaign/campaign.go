// Package campaign implements the many-core scaling observatory: a
// declarative benchmark campaign runner in the spirit of the kubernetes
// hack/benchmark campaign scripts — a matrix over
// threads × GOMAXPROCS × queue variants × workloads driven through the
// existing harness.Sweep plumbing, one env-stamped JSON snapshot
// document per (workload, GOMAXPROCS) written under results/, plus
// self-contained SVG scaling charts rendered by internal/report with no
// external dependencies.
//
// On top of the snapshots sits a perf regression gate (gate.go): it
// loads committed baseline documents, matches cells by
// (series, workload, threads, gomaxprocs), compares noise-robust
// statistics — median- or min-derived ops/sec, never the mean — and
// reports every cell that regressed beyond a tolerance. cmd/wfqcampaign
// is the driver; scripts/check.sh and CI run it as the repo's first
// automated perf gate.
package campaign

import (
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"wfq/internal/harness"
	"wfq/internal/stats"
)

// Env stamps a snapshot with the machine and build that produced it.
// GOMAXPROCS here is the process-level value at campaign start; every
// Cell additionally records the effective value it ran under, which is
// the authoritative one because the campaign overrides it per document.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

// CaptureEnv collects the Env of this process.
func CaptureEnv() Env {
	env := Env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	return env
}

// Spec declares one campaign matrix. Every combination of
// Procs × Workloads × Variants × Threads becomes one measured cell.
type Spec struct {
	// Variants are harness algorithm names (harness.ByName).
	Variants []string
	// Workloads are short workload names: pairs, fifty, batchpairs,
	// batchenq, latency (timed pairs), and the blocking-consumer
	// workloads spin and park (harness.MeasureBlocking with Threads
	// producers and Threads consumers; Iters does not apply).
	Workloads []string
	// Threads are the worker counts of each sweep (the x axis).
	Threads []int
	// Procs are the GOMAXPROCS values; each gets its own snapshot
	// document per workload.
	Procs []int
	// Iters is the per-thread iteration budget. On the batch workloads it
	// counts ELEMENTS per thread (iterations scale down by the batch
	// width), so every cell moves the same element volume.
	Iters int
	// Repeats is the number of measured runs per cell.
	Repeats int
	// Profile names the base scheduler profile ("default", "preempt",
	// "oversub", "midop"); empty means default. The campaign overlays its
	// per-document GOMAXPROCS on top of it.
	Profile string
	// BatchKs are the batch widths of the batch workloads; each width
	// gets its own documents. Empty means the single width 0, the
	// harness default (8). pairs and fifty ignore the widths.
	BatchKs []int
	// Logf receives progress lines and oversubscription warnings; nil
	// silences them.
	Logf func(format string, args ...any)
}

func (s Spec) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// warn logs an oversubscribed cell and returns it unchanged.
func (s Spec) warn(c Cell) Cell {
	if c.Oversubscribed {
		s.logf("campaign: WARNING: cell [%s %s threads=%d gomaxprocs=%d] is oversubscribed: it measures scheduler multiplexing, not parallelism",
			c.Series, c.Workload, c.Threads, c.GOMAXPROCS)
	}
	return c
}

// Cell is one measured matrix cell. The three ops/sec fields derive from
// the mean, median and minimum repeat time respectively; the gate keys
// off median or min per the repo's comparison convention (EXPERIMENTS.md)
// because GC pauses and scheduler noise only ever slow a repeat down.
type Cell struct {
	Series   string `json:"series"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	// GOMAXPROCS is the effective scheduler width during this cell's
	// measured runs, captured inside the harness after the profile
	// override applied.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Oversubscribed marks Threads > GOMAXPROCS: the cell measures
	// scheduler multiplexing, not parallelism, and scaling claims must
	// not be drawn from it.
	Oversubscribed  bool    `json:"oversubscribed,omitempty"`
	Shards          int     `json:"shards,omitempty"`
	Iters           int     `json:"iters"`
	OpsPerIter      int     `json:"ops_per_iter"`
	SecMean         float64 `json:"sec_mean"`
	SecStd          float64 `json:"sec_std"`
	SecMin          float64 `json:"sec_min"`
	SecMedian       float64 `json:"sec_median"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	OpsPerSecMedian float64 `json:"ops_per_sec_median"`
	OpsPerSecMin    float64 `json:"ops_per_sec_min"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	FastHits        int64   `json:"fast_hits,omitempty"`
	FastFallbacks   int64   `json:"fast_fallbacks,omitempty"`
	// Help traffic per operation, from the KP engines' event counters
	// (omitted for variants built without core.WithMetrics): state-array
	// entries scanned, helps given to other threads, failed append and
	// descriptor CASes, and tail and head fixes executed.
	ScansPerOp         float64 `json:"scans_per_op,omitempty"`
	HelpsPerOp         float64 `json:"helps_per_op,omitempty"`
	AppendCASFailPerOp float64 `json:"append_cas_fail_per_op,omitempty"`
	DescCASFailPerOp   float64 `json:"desc_cas_fail_per_op,omitempty"`
	TailFixesPerOp     float64 `json:"tail_fixes_per_op,omitempty"`
	HeadFixesPerOp     float64 `json:"head_fixes_per_op,omitempty"`
	// ThreadSpread and ThreadCV are the per-worker completion spread
	// (max/min) and coefficient of variation of the last repeat.
	ThreadSpread float64 `json:"thread_spread,omitempty"`
	ThreadCV     float64 `json:"thread_cv,omitempty"`
	// Latency percentiles of the last repeat: per operation on the
	// latency workload, enqueue to delivery on spin and park.
	Samples int   `json:"samples,omitempty"`
	P50Ns   int64 `json:"p50_ns,omitempty"`
	P99Ns   int64 `json:"p99_ns,omitempty"`
	P999Ns  int64 `json:"p999_ns,omitempty"`
	MaxNs   int64 `json:"max_ns,omitempty"`
	// Blocking workloads only: elements through the queue in the last
	// repeat, and the consumers' CPU per delivered element (process CPU
	// minus a producers-only calibration run), median over repeats.
	Produced           int64   `json:"produced,omitempty"`
	Delivered          int64   `json:"delivered,omitempty"`
	ConsumerCPUNsPerOp float64 `json:"consumer_cpu_ns_per_op,omitempty"`
}

// FastHitRatio reports the fraction of operations the fast path absorbed,
// or -1 when the variant exposes no fast-path counters.
func (c Cell) FastHitRatio() float64 {
	total := c.FastHits + c.FastFallbacks
	if total == 0 {
		return -1
	}
	return float64(c.FastHits) / float64(total)
}

// Doc is one snapshot document: every variant's thread sweep for one
// (workload, batch width, GOMAXPROCS) point of the matrix. Serialized
// as BENCH_campaign_<workload>_g<procs>.json, or
// BENCH_campaign_<workload>_k<width>_g<procs>.json for an explicit
// batch width.
type Doc struct {
	SchemaVersion int    `json:"schema_version"`
	Campaign      string `json:"campaign"`
	Workload      string `json:"workload"`
	// GOMAXPROCS is the requested scheduler width of this document; the
	// cells record the effective one.
	GOMAXPROCS int    `json:"gomaxprocs"`
	Profile    string `json:"profile"`
	Iters      int    `json:"iters"`
	Repeats    int    `json:"repeats"`
	// BatchK is the batch width of a batch-workload document; 0 means
	// the harness default (8) and is the only width of pairs and fifty.
	BatchK int    `json:"batch_k,omitempty"`
	Env    Env    `json:"env"`
	Cells  []Cell `json:"cells"`
}

// stem names the document's (workload, batch width) series: the
// workload alone at width 0, workload_k<width> otherwise.
func (d *Doc) stem() string {
	if d.BatchK == 0 {
		return d.Workload
	}
	return fmt.Sprintf("%s_k%d", d.Workload, d.BatchK)
}

// SchemaVersion is the current snapshot document schema.
const SchemaVersion = 1

// ParseWorkload resolves a short workload name.
func ParseWorkload(name string) (harness.Workload, error) {
	switch name {
	case "pairs":
		return harness.Pairs, nil
	case "fifty":
		return harness.Fifty, nil
	case "batchpairs", "batch-pairs":
		return harness.BatchPairs, nil
	case "batchenq", "batch-enq":
		return harness.BatchEnq, nil
	case "latency":
		return harness.Latency, nil
	default:
		return 0, fmt.Errorf("campaign: unknown workload %q (want pairs, fifty, batchpairs, batchenq, latency, spin or park)", name)
	}
}

// blockingModes maps the blocking-consumer workload names onto
// harness.MeasureBlocking modes.
var blockingModes = map[string]harness.BlockingMode{
	"spin": harness.BlockingSpin,
	"park": harness.BlockingPark,
}

// WorkloadShort maps a harness workload back to its short campaign name.
func WorkloadShort(w harness.Workload) string {
	switch w {
	case harness.Pairs:
		return "pairs"
	case harness.Fifty:
		return "fifty"
	case harness.BatchPairs:
		return "batchpairs"
	case harness.BatchEnq:
		return "batchenq"
	case harness.Latency:
		return "latency"
	default:
		return fmt.Sprintf("workload%d", int(w))
	}
}

func (s Spec) validate() error {
	if len(s.Variants) == 0 || len(s.Workloads) == 0 || len(s.Threads) == 0 || len(s.Procs) == 0 {
		return fmt.Errorf("campaign: matrix needs at least one variant, workload, thread count and GOMAXPROCS value")
	}
	if s.Iters <= 0 || s.Repeats <= 0 {
		return fmt.Errorf("campaign: Iters and Repeats must be positive (got %d, %d)", s.Iters, s.Repeats)
	}
	for _, p := range s.Procs {
		if p < 1 {
			return fmt.Errorf("campaign: bad GOMAXPROCS value %d", p)
		}
	}
	for _, n := range s.Threads {
		if n < 1 {
			return fmt.Errorf("campaign: bad thread count %d", n)
		}
	}
	for _, k := range s.BatchKs {
		if k < 0 {
			return fmt.Errorf("campaign: bad batch width %d", k)
		}
	}
	return nil
}

// isBatch reports whether w moves elements in batches of Config.BatchK.
func isBatch(w harness.Workload) bool {
	return w == harness.BatchPairs || w == harness.BatchEnq
}

// batchWidth resolves width 0 to the harness default.
func batchWidth(k int) int {
	if k == 0 {
		return 8
	}
	return k
}

// Run executes the matrix and returns one Doc per (workload, batch
// width, procs) point, cells ordered variant-major then by thread
// count. Documents are ordered workload-major, then by width in Spec
// order, then by ascending GOMAXPROCS.
func Run(spec Spec) ([]*Doc, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	var algs []harness.Algorithm
	for _, name := range spec.Variants {
		a, ok := harness.ByName(name)
		if !ok {
			var names []string
			for _, a := range harness.AllAlgorithms() {
				names = append(names, a.Name)
			}
			return nil, fmt.Errorf("campaign: unknown variant %q (valid: %s)", name, strings.Join(names, ", "))
		}
		algs = append(algs, a)
	}
	profName := spec.Profile
	if profName == "" {
		profName = "default"
	}
	baseProf, err := harness.ProfileByName(profName)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	shardsByAlg := map[string]int{}
	for _, a := range algs {
		shardsByAlg[a.Name] = a.Shards
	}
	env := CaptureEnv()
	procs := append([]int(nil), spec.Procs...)
	sort.Ints(procs)

	// newDoc starts the document of one (workload, batch width,
	// GOMAXPROCS) point.
	newDoc := func(workload string, k, iters, p int) *Doc {
		d := &Doc{
			SchemaVersion: SchemaVersion,
			Workload:      workload,
			GOMAXPROCS:    p,
			Profile:       profName,
			Iters:         iters,
			Repeats:       spec.Repeats,
			BatchK:        k,
			Env:           env,
		}
		d.Campaign = fmt.Sprintf("%s_g%d", d.stem(), p)
		return d
	}

	var docs []*Doc
	for _, wlName := range spec.Workloads {
		if mode, ok := blockingModes[wlName]; ok {
			for _, p := range procs {
				doc := newDoc(wlName, 0, spec.Iters, p)
				prof := baseProf
				prof.GOMAXPROCS = p
				spec.logf("campaign: measuring %s (%d variants × %d thread counts × %d repeats of %v)",
					doc.Campaign, len(algs), len(spec.Threads), spec.Repeats, blockingDuration)
				for _, a := range algs {
					for _, n := range spec.Threads {
						c, err := blockingCell(a, n, prof, mode, spec.Repeats)
						if err != nil {
							return nil, fmt.Errorf("campaign: %s: %s @%d threads: %w", doc.Campaign, a.Name, n, err)
						}
						doc.Cells = append(doc.Cells, spec.warn(c))
					}
				}
				docs = append(docs, doc)
			}
			continue
		}
		w, err := ParseWorkload(wlName)
		if err != nil {
			return nil, err
		}
		widths := []int{0}
		if isBatch(w) && len(spec.BatchKs) > 0 {
			widths = spec.BatchKs
		}
		for _, k := range widths {
			// Element-normalized iteration budget on the batch workloads.
			iters := spec.Iters
			if isBatch(w) {
				if iters = spec.Iters / batchWidth(k); iters == 0 {
					iters = 1
				}
			}
			for _, p := range procs {
				doc := newDoc(WorkloadShort(w), k, iters, p)
				prof := baseProf
				prof.GOMAXPROCS = p
				spec.logf("campaign: measuring %s (%d variants × %d thread counts × %d repeats)",
					doc.Campaign, len(algs), len(spec.Threads), spec.Repeats)
				pts, err := harness.Sweep(algs, spec.Threads, harness.Config{
					Workload: w, Iters: iters, Seed: 1, Profile: prof, BatchK: k,
				}, spec.Repeats)
				if err != nil {
					return nil, fmt.Errorf("campaign: %s: %w", doc.Campaign, err)
				}
				for _, pt := range pts {
					doc.Cells = append(doc.Cells, spec.warn(cellFromPoint(pt, doc.Workload, shardsByAlg[pt.Algorithm])))
				}
				docs = append(docs, doc)
			}
		}
	}
	return docs, nil
}

// cellFromPoint converts one harness sweep point into a snapshot cell.
func cellFromPoint(pt harness.SweepPoint, workload string, shards int) Cell {
	totalOps := float64(pt.OpsPerIter * pt.Iters * pt.Threads)
	ops := func(sec float64) float64 {
		if sec <= 0 {
			return 0
		}
		return totalOps / sec
	}
	perOp := func(n int64) float64 { return float64(n) / totalOps }
	m := pt.Metrics
	c := Cell{
		Series:             pt.Algorithm,
		Workload:           workload,
		Threads:            pt.Threads,
		GOMAXPROCS:         pt.GOMAXPROCS,
		Oversubscribed:     pt.Threads > pt.GOMAXPROCS,
		Shards:             shards,
		Iters:              pt.Iters,
		OpsPerIter:         pt.OpsPerIter,
		SecMean:            pt.Summary.Mean,
		SecStd:             pt.Summary.Std,
		SecMin:             pt.Summary.Min,
		SecMedian:          pt.Summary.Median,
		OpsPerSec:          ops(pt.Summary.Mean),
		OpsPerSecMedian:    ops(pt.Summary.Median),
		OpsPerSecMin:       ops(pt.Summary.Min),
		AllocsPerOp:        pt.AllocsPerOp,
		BytesPerOp:         pt.BytesPerOp,
		FastHits:           m.FastHits(),
		FastFallbacks:      m.FastFallbacks,
		ScansPerOp:         perOp(m.HelpScans),
		HelpsPerOp:         perOp(m.HelpsGiven),
		AppendCASFailPerOp: perOp(m.AppendCASFailures),
		DescCASFailPerOp:   perOp(m.DescCASFailures),
		TailFixesPerOp:     perOp(m.TailFixes),
		HeadFixesPerOp:     perOp(m.HeadFixes),
		ThreadSpread:       pt.ThreadSpread,
		ThreadCV:           pt.ThreadCV,
	}
	c.setLatency(pt.Latency)
	return c
}

// setLatency copies a latency summary into the cell.
func (c *Cell) setLatency(p harness.Percentiles) {
	c.Samples = p.Samples
	c.P50Ns, c.P99Ns, c.P999Ns, c.MaxNs = int64(p.P50), int64(p.P99), int64(p.P999), int64(p.Max)
}

// The blocking workloads' fixed shape: every blockingInterval each
// producer enqueues blockingBurst timestamped elements, for
// blockingDuration — a duty cycle near 1%, the regime where a consumer's
// idle cost is what matters.
const (
	blockingDuration = 2 * time.Second
	blockingInterval = time.Millisecond
	blockingBurst    = 10
)

// blockingCell measures one spin or park cell: Threads producers and
// Threads consumers, one producers-only calibration run whose CPU is
// subtracted from each measured run, then repeats measured runs. The
// throughput fields are delivered elements per wall second (OpsPerSecMin
// is the best repeat's, matching its min-time derivation elsewhere).
func blockingCell(alg harness.Algorithm, threads int, prof harness.Profile, mode harness.BlockingMode, repeats int) (Cell, error) {
	cfg := harness.BlockingConfig{
		Producers: threads, Consumers: threads,
		Duration: blockingDuration, Interval: blockingInterval, Burst: blockingBurst,
		Profile: prof,
	}
	calib, err := harness.MeasureBlocking(alg, cfg, harness.BlockingProducersOnly)
	if err != nil {
		return Cell{}, err
	}
	walls := make([]time.Duration, 0, repeats)
	var rates, cpuPerOp []float64
	var last harness.BlockingResult
	for r := 0; r < repeats; r++ {
		if last, err = harness.MeasureBlocking(alg, cfg, mode); err != nil {
			return Cell{}, err
		}
		walls = append(walls, last.Wall)
		rates = append(rates, float64(last.Delivered)/last.Wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(max(last.CPU-calib.CPU, 0))/float64(max(last.Delivered, 1)))
	}
	ws, rs, cs := stats.SummarizeDurations(walls), stats.Summarize(rates), stats.Summarize(cpuPerOp)
	c := Cell{
		Series:             alg.Name,
		Workload:           mode.String(),
		Threads:            threads,
		GOMAXPROCS:         last.GOMAXPROCS,
		Oversubscribed:     threads > last.GOMAXPROCS,
		Shards:             alg.Shards,
		SecMean:            ws.Mean,
		SecStd:             ws.Std,
		SecMin:             ws.Min,
		SecMedian:          ws.Median,
		OpsPerSec:          rs.Mean,
		OpsPerSecMedian:    rs.Median,
		OpsPerSecMin:       rs.Max,
		Produced:           last.Produced,
		Delivered:          last.Delivered,
		ConsumerCPUNsPerOp: cs.Median,
	}
	c.setLatency(last.Percentiles)
	return c, nil
}
