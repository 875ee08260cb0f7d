// Command perfbench is the repository's benchmark. One run is one fresh
// process on one workload: it generates the workload's inputs from the
// seed, times loading them (set-up), sends one warm-up request, then sends a
// closed loop of identical requests from one client to core.Anonymize for
// the given number of seconds, checks every result outside the timed
// region, and prints its metrics. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 21, "failed": 0, "metrics": {"anonymize_s": {"value": 0.91, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run alternates untraced and traced requests under a
// CPU profile and reports the per-layer metrics instead; its spans are
// written to --out when the run ends. See README.md for the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"diva/internal/history"
	"diva/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricSpec{
	{"anonymize_s", "s"},
	{"cpu_s", "s"},
	{"alloc_bytes", "B"},
	{"allocs", "count"},
	{"peak_rss_bytes", "B"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, in report order.
var perLayer = []metricSpec{
	{"relation.load_s", "s"},
	{"constraint.parse_s", "s"},
	{"constraint.bind_s", "s"},
	{"search.build_graph_s", "s"},
	{"search.color_s", "s"},
	{"search.us_per_visit", "us"},
	{"search.bytes_per_visit", "B"},
	{"search.visits", "count"},
	{"search.backtracks", "count"},
	{"search.candidates_tried", "count"},
	{"search.cache_hit_ratio", "ratio"},
	{"search.nogoods_learned", "count"},
	{"search.nogood_hits", "count"},
	{"search.backjumps", "count"},
	{"search.max_backjump", "count"},
	{"cluster.enumerations", "count"},
	{"cluster.candidates", "count"},
	{"cluster.candidates_per_enum", "count"},
	{"cluster.cpu_share", "ratio"},
	{"rowset.cpu_share", "ratio"},
	{"search.cpu_share", "ratio"},
	{"anon.baseline_s", "s"},
	{"anon.splits", "count"},
	{"anon.leaves", "count"},
	{"anon.split_s", "s"},
	{"anon.cpu_share", "ratio"},
	{"core.suppress_s", "s"},
	{"core.integrate_s", "s"},
	{"core.verify_s", "s"},
	{"core.repaired_cells", "count"},
	{"core.stars", "count"},
	{"core.overhead_s", "s"},
	{"trace.events", "count"},
	{"trace.overhead_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.cpu_share", "ratio"},
	{"verify.validate_s", "s"},
}

// cpuShareMetric names the per-layer metric a package's self time counts
// toward, or "" for packages outside the measured layers.
func cpuShareMetric(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime.cpu_share"
	}
	if layer, ok := strings.CutPrefix(pkg, "diva/internal/"); ok {
		switch layer {
		case "cluster", "rowset", "search", "anon":
			return layer + ".cpu_share"
		}
	}
	return ""
}

// config is one run's command line.
type config struct {
	workload *Workload
	seed     uint64
	seconds  float64
	traced   bool
	out      string
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: census-publish, dense-chron or dense-nogoods")
	seed := fs.Uint64("seed", DefaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured request time of the run, in seconds")
	traced := fs.Int("trace", 0, "0 for the end-to-end run, 1 for the traced per-layer run")
	out := fs.String("out", ".bench_build/perfbench-runs", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := lookup(*name)
	if err != nil {
		return config{}, err
	}
	if *traced != 0 && *traced != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if !(*seconds > 0) {
		return config{}, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	return config{workload: w, seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out}, nil
}

// environment is recorded with every run's numbers.
type environment struct {
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Rows       int     `json:"rows"`
	K          int     `json:"k"`
	Constraint int     `json:"constraints"`
	Strategy   string  `json:"strategy"`
	MaxSteps   int     `json:"max_steps"`
	Nogoods    bool    `json:"nogoods"`
	Expect     string  `json:"expect"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	unmeasured []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	// Keep the history ledger, the canonical log and ops profiling out of
	// every timing: they are off unless switched on, and the ledger is
	// switched on by the environment.
	if err := os.Unsetenv(history.EnvDir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	obs.SetCanonicalLogger(nil)
	obs.EnableProfiling(false)
	// The program runs single-threaded: on a shared 2-vCPU VM a second
	// processor for the garbage collector doubled the run-to-run spread of
	// wall time (12% against 5% on dense-nogoods).
	runtime.GOMAXPROCS(1)

	w := cfg.workload
	in, err := w.Inputs(cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rel, sigma, setups, err := w.setup(in)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	env := environment{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Rows: rel.Len(), K: w.K, Constraint: len(sigma), Strategy: w.Strategy.String(),
		MaxSteps: w.MaxSteps, Nogoods: w.Nogoods, Expect: w.Expect,
	}
	lr, err := w.loop(cfg, rel, sigma)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	for _, e := range lr.errors {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.Name, e)
	}

	var loads, parses, setupTotals []float64
	for _, s := range setups {
		loads = append(loads, s.load)
		parses = append(parses, s.parse)
		setupTotals = append(setupTotals, s.load+s.parse)
	}
	res := result{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metric{}}
	var report []string
	if cfg.traced {
		values := lr.layerMedians()
		values["relation.load_s"] = median(loads)
		values["constraint.parse_s"] = median(parses)
		values["trace.overhead_s"] = median(lr.walls(true)) - median(lr.walls(false))
		values["verify.validate_s"] = 0
		if len(lr.validate) > 0 {
			values["verify.validate_s"] = median(lr.validate)
		}
		for _, layer := range []string{"cluster", "rowset", "search", "anon", "runtime"} {
			values[layer+".cpu_share"] = 0
		}
		for pkg, share := range lr.shares {
			if name := cpuShareMetric(pkg); name != "" {
				values[name] += share
			}
		}
		report = res.fill(perLayer, values)
		if err := writeSpans(cfg, env, lr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			res.Correct = false
		}
	} else {
		untraced := lr.samples(false)
		pick := func(f func(sample) float64) []float64 {
			xs := make([]float64, len(untraced))
			for i, s := range untraced {
				xs[i] = f(s)
			}
			return xs
		}
		walls, cpus := pick(func(s sample) float64 { return s.wall }), pick(func(s sample) float64 { return s.cpu })
		report = res.fill(endToEnd, map[string]float64{
			"anonymize_s":    median(walls),
			"cpu_s":          median(cpus),
			"alloc_bytes":    median(pick(func(s sample) float64 { return s.allocBytes })),
			"allocs":         median(pick(func(s sample) float64 { return s.allocs })),
			"peak_rss_bytes": lr.peakRSS,
			"setup_s":        median(setupTotals),
		})
		n := len(untraced)
		tail := "no tail percentile: fewer than 20 samples"
		if p := tailPercentile(n); p > 0 {
			tail = fmt.Sprintf("p%d anonymize_s %.6g s, cpu_s %.6g s", p, quantile(walls, float64(p)/100), quantile(cpus, float64(p)/100))
		}
		report = append(report,
			fmt.Sprintf("  timings are medians of %d requests (%s); setup_s is the median of %d set-ups of %d load(s)", n, tail, len(setups), w.SetupLoads))
		if lr.stars >= 0 {
			report = append(report, fmt.Sprintf("  %-28s %-14d %s  (deterministic at a seed; every request published it)", "stars", lr.stars, "count"))
		}
	}
	for _, name := range res.unmeasured {
		fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", w.Name, name)
	}

	mode := "end-to-end"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d %s: %d attempted, %d failed\n", w.Name, cfg.seed, mode, res.Attempted, res.Failed)
	for _, line := range report {
		fmt.Fprintln(stdout, line)
	}
	envJSON, _ := json.Marshal(env) // a struct of plain fields always encodes
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !res.Correct {
		return 1
	}
	return 0
}

// fill sets the named metrics from values and returns one report line per
// metric. A metric missing from values or not a finite number reads as 0 and
// marks the run incorrect.
func (r *result) fill(specs []metricSpec, values map[string]float64) []string {
	lines := make([]string, 0, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.unmeasured = append(r.unmeasured, s.name)
			r.Correct = false
			v = 0
		}
		r.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		lines = append(lines, fmt.Sprintf("  %-28s %-14.6g %s", s.name, v, s.unit))
	}
	return lines
}
