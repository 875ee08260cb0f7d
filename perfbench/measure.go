package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/relation"
)

// setupSample is one timed set-up: the per-load time of reading the CSV and
// of parsing Σ, each averaged over the workload's SetupLoads loads.
type setupSample struct {
	load, parse float64
}

// setup loads the inputs SetupSamples × SetupLoads times, timing the CSV
// read and the Σ parse separately, and returns the relation and Σ of the
// last load with every sample.
func (w *Workload) setup(in Inputs) (*relation.Relation, constraint.Set, []setupSample, error) {
	var rel *relation.Relation
	var sigma constraint.Set
	samples := make([]setupSample, w.SetupSamples)
	for i := range samples {
		// Start each sample from a collected heap, so garbage left by the
		// previous one is not charged to it.
		runtime.GC()
		var load, parse time.Duration
		for j := 0; j < w.SetupLoads; j++ {
			start := time.Now()
			r, err := relation.ReadAnnotatedCSV(bytes.NewReader(in.CSV))
			mid := time.Now()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("reading CSV: %w", err)
			}
			s, err := constraint.ParseSet(bytes.NewReader(in.Sigma))
			end := time.Now()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("parsing constraints: %w", err)
			}
			load += mid.Sub(start)
			parse += end.Sub(mid)
			rel, sigma = r, s
		}
		n := float64(w.SetupLoads)
		samples[i] = setupSample{load: load.Seconds() / n, parse: parse.Seconds() / n}
	}
	return rel, sigma, samples, nil
}

// sample is the cost of one timed request.
type sample struct {
	wall, cpu          float64
	allocBytes, allocs float64
}

// cpuSeconds is the process's user+sys CPU time, every thread included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSS is the process's high-water resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// timed runs f and measures its wall time, process CPU time and heap
// allocations. The allocation counters are read outside the timed interval.
func timed(f func()) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	f()
	wall := time.Since(start).Seconds()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return sample{
		wall:       wall,
		cpu:        cpu1 - cpu0,
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		allocs:     float64(m1.Mallocs - m0.Mallocs),
	}
}

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks (NaN for no values).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest of the 50th, 75th, 90th, 95th and 99th
// percentiles that still has at least ten of n samples beyond it, or 0
// when n is below twenty.
func tailPercentile(n int) int {
	best := 0
	for _, p := range []int{50, 75, 90, 95, 99} {
		if float64(n)*float64(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// loopResult is everything the request loop measured and checked.
type loopResult struct {
	attempted, failed int
	errors            []string
	requests          []measured
	validate          []float64
	stars             int // -1 when the workload publishes nothing
	peakRSS           float64
	shares            map[string]float64
	tracer            *layerTracer
}

// measured is one timed request; layers is set when it was traced.
type measured struct {
	sample
	traced bool
	layers map[string]float64
	events requestCounts
}

func (lr *loopResult) samples(traced bool) []sample {
	var out []sample
	for _, m := range lr.requests {
		if m.traced == traced {
			out = append(out, m.sample)
		}
	}
	return out
}

func (lr *loopResult) walls(traced bool) []float64 {
	var out []float64
	for _, s := range lr.samples(traced) {
		out = append(out, s.wall)
	}
	return out
}

// layerMedians is the median of every per-request layer metric over the
// traced requests.
func (lr *loopResult) layerMedians() map[string]float64 {
	byName := map[string][]float64{}
	for _, m := range lr.requests {
		for name, v := range m.layers {
			byName[name] = append(byName[name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// maxRecordedErrors bounds how many failed checks a run prints.
const maxRecordedErrors = 5

// loop sends the warm-up request and then the closed loop of requests until
// their summed wall time reaches cfg.seconds, checking each result after
// its timing. Every request starts from a collected heap, so the garbage of
// the one before is not charged to it. A traced run alternates untraced
// and traced requests: the traced ones give the spans and event counts, the
// untraced ones are CPU-profiled for the self time of each package.
func (w *Workload) loop(cfg config, rel *relation.Relation, sigma constraint.Set) (*loopResult, error) {
	lr := &loopResult{stars: -1}
	var first *core.Result
	checkOne := func(res *core.Result, err error) {
		lr.attempted++
		d, cerr := w.check(rel, sigma, res, err, first)
		if res.Output != nil && cerr == nil {
			lr.validate = append(lr.validate, d.Seconds())
			lr.stars = res.Metrics.SuppressedCells
		}
		if cerr != nil {
			lr.failed++
			if len(lr.errors) < maxRecordedErrors {
				lr.errors = append(lr.errors, fmt.Sprintf("request %d: %v", lr.attempted, cerr))
			}
		}
		if first == nil {
			first = res
		}
	}
	res, err := w.request(rel, sigma, cfg.seed, nil)
	checkOne(res, err)

	if cfg.traced {
		lr.tracer = newLayerTracer()
	}
	cpuByPkg := map[string]int64{}
	minRequests := 1 // a traced run needs one request of each kind
	if cfg.traced {
		minRequests = 2
	}
	for i, total := 0, 0.0; total < cfg.seconds || i < minRequests; i++ {
		traced := cfg.traced && i%2 == 1
		profiled := cfg.traced && !traced
		var res *core.Result
		var err error
		var gc0, gc1 gcReading
		var s sample
		var prof bytes.Buffer
		runtime.GC()
		switch {
		case traced:
			t := lr.tracer
			gc0 = readGC()
			s = timed(func() {
				t.begin(i)
				res, err = w.request(rel, sigma, cfg.seed, t)
				t.end()
			})
			gc1 = readGC()
		case profiled:
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("starting CPU profile: %w", err)
			}
			s = timed(func() { res, err = w.request(rel, sigma, cfg.seed, nil) })
			pprof.StopCPUProfile()
			if err := addPackageTime(cpuByPkg, prof.Bytes()); err != nil {
				return nil, err
			}
		default:
			s = timed(func() { res, err = w.request(rel, sigma, cfg.seed, nil) })
		}
		total += s.wall
		m := measured{sample: s, traced: traced}
		if traced {
			m.layers = requestLayers(lr.tracer, res, s.wall, gc0, gc1)
			m.events = lr.tracer.c
		}
		lr.requests = append(lr.requests, m)
		checkOne(res, err)
	}
	lr.peakRSS = peakRSS()
	lr.shares = shares(cpuByPkg)
	return lr, nil
}
