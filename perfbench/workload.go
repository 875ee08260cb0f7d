package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/trace"
	"diva/internal/verify"
)

// DefaultSeed is the divabench harness default seed. At this seed the dense
// workloads run exactly the BENCH_nogood.json fixture.
const DefaultSeed = 20210323

// Workload is one set of inputs the benchmark runs, with the verdict every
// request on it must reach.
type Workload struct {
	Name string
	// Rows is |R|, K the privacy parameter.
	Rows, K int
	// Strategy, MaxSteps and Nogoods configure the coloring search; MaxSteps
	// 0 means the search package default.
	Strategy search.Strategy
	MaxSteps int
	Nogoods  bool
	// Expect is the core.RunOutcome every request must report.
	Expect string
	// ExhaustBudget requires every request to stop after exactly
	// MaxSteps+1 node visits.
	ExhaustBudget bool
	// Pin, when non-nil, holds the search counters every request must
	// reproduce. The dense fixture's search input is the same at every seed
	// (see denseInputs), so its pin holds at every seed.
	Pin *Pin
	// SkipContainment drops the Θ(|R|²) R ⊑ R′ check from output
	// validation.
	SkipContainment bool
	// SetupSamples is how many times set-up is timed; each sample times
	// SetupLoads consecutive loads, so a short load is measured over enough
	// work to be steady.
	SetupSamples, SetupLoads int
	// generate builds the relation and Σ the program is handed as text.
	generate func(rows, k int, seed uint64) (*relation.Relation, constraint.Set, error)
}

// Pin is a set of search counters a fixture must reproduce exactly.
type Pin struct {
	Visits, Nogoods, Backjumps int
}

// denseRows and densePadders shape the dense-conflict fixture of
// BENCH_nogood.json: census at |R| = 400, an infeasible REGION/SEX core and
// five EDUCATION padders.
const (
	denseRows    = 400
	densePadders = 5
)

// Workloads lists the benchmark's workloads by name.
var Workloads = []*Workload{
	// The whole publish path on a large feasible input: baseline Mondrian
	// and relation handling dominate, so search-layer changes should not
	// move it.
	{
		Name:            "census-publish",
		Rows:            100_000,
		K:               10,
		Strategy:        search.MaxFanOut,
		Expect:          "ok",
		SkipContainment: true,
		SetupSamples:    7,
		SetupLoads:      1,
		generate:        censusInputs,
	},
	// The dense-conflict fixture under a fixed chronological budget: every
	// request makes the same 20,001 visits, which isolates the cost of one.
	{
		Name:          "dense-chron",
		Rows:          denseRows,
		K:             10,
		Strategy:      search.MinChoice,
		MaxSteps:      20_000,
		Expect:        "infeasible",
		ExhaustBudget: true,
		SetupSamples:  15,
		SetupLoads:    100,
		generate:      denseInputs,
	},
	// The same fixture with nogood learning, run to its verdict: the same
	// search layers plus nogood store writes, probes and backjumps.
	{
		Name:         "dense-nogoods",
		Rows:         denseRows,
		K:            10,
		Strategy:     search.MinChoice,
		MaxSteps:     500_000,
		Nogoods:      true,
		Expect:       "infeasible",
		Pin:          &Pin{Visits: 8085, Nogoods: 6073, Backjumps: 2013},
		SetupSamples: 15,
		SetupLoads:   100,
		generate:     denseInputs,
	},
}

// lookup returns the workload called name.
func lookup(name string) (*Workload, error) {
	var names []string
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Inputs is what the program is handed: an annotated CSV and Σ as text.
type Inputs struct {
	CSV, Sigma []byte
}

// Inputs generates the workload's inputs at seed.
func (w *Workload) Inputs(seed uint64) (Inputs, error) {
	rel, sigma, err := w.generate(w.Rows, w.K, seed)
	if err != nil {
		return Inputs{}, fmt.Errorf("%s: generating inputs: %w", w.Name, err)
	}
	var csv, st bytes.Buffer
	if err := relation.WriteAnnotatedCSV(&csv, rel); err != nil {
		return Inputs{}, fmt.Errorf("%s: writing CSV: %w", w.Name, err)
	}
	for _, c := range sigma {
		fmt.Fprintln(&st, c)
	}
	return Inputs{CSV: csv.Bytes(), Sigma: st.Bytes()}, nil
}

// censusTargets are the eight targets constraint.Proportional draws over
// the census sample at DefaultSeed: the paper's Table 5 default |Σ| = 8, as
// the divabench comparison experiments generate it.
var censusTargets = [][2]string{
	{"RACE", "Other"}, {"REGION", "Region10"}, {"REGION", "Region11"}, {"SEX", "Female"},
	{"AGE", "0"}, {"REGION", "Region1"}, {"REGION", "Region5"}, {"AGE", "40"},
}

// censusInputs draws a census sample of the given size at seed and anchors
// proportional bounds for censusTargets on it, with no upper-bound pressure
// (UpperFrac 1), as constraint.Proportional does. The targets stay fixed
// because the draw is what moves the cost of a request between seeds: a
// target like SEX[Female] covers half the rows, RACE[Amer-Indian] a few
// hundred. At DefaultSeed Σ is exactly the Proportional draw.
func censusInputs(rows, k int, seed uint64) (*relation.Relation, constraint.Set, error) {
	rel := dataset.CensusSized(rows).Generate(rows, seed)
	sigma := make(constraint.Set, 0, len(censusTargets))
	for _, t := range censusTargets {
		c := constraint.New(t[0], t[1], 0, 0)
		b, err := c.Bound(rel)
		if err != nil {
			return nil, nil, err
		}
		c.Lower, c.Upper = constraint.CoverageBounds(b.CountIn(rel), k, 0.1, 1)
		sigma = append(sigma, c)
	}
	return rel, sigma, nil
}

// denseInputs builds the dense-conflict fixture. Its quasi-identifier
// columns are always those of the census sample at DefaultSeed: the
// fixture's infeasible core is anchored on that sample's value supports, and
// the search tree depends on their row order and dictionary order too
// (other samples take from a few dozen to several hundred thousand visits,
// and a row shuffle of this one 36% more). The seed instead draws the
// sensitive columns, 35 of the 40, from the census sample at the seed: the
// CSV bytes and the load work change, the search does not. At DefaultSeed
// the fixture is exactly BENCH_nogood.json's.
func denseInputs(rows, k int, seed uint64) (*relation.Relation, constraint.Set, error) {
	base := dataset.CensusSized(rows).Generate(rows, DefaultSeed)
	sigma, err := denseSigma(base, k)
	if err != nil || seed == DefaultSeed {
		return base, sigma, err
	}
	payload := dataset.CensusSized(rows).Generate(rows, seed)
	schema := base.Schema()
	rel := relation.New(schema)
	for i := 0; i < base.Len(); i++ {
		vals, other := base.Values(i), payload.Values(i)
		for a := range vals {
			if schema.Attr(a).Role != relation.QI {
				vals[a] = other[a]
			}
		}
		if _, err := rel.AppendValues(vals...); err != nil {
			return nil, nil, err
		}
	}
	return rel, sigma, nil
}

// denseSigma is the dense-conflict Σ of the nogood study. Its core is three
// constraints on one REGION value r: at most 2k−2 visible r cells, yet a
// preserved cluster of ≥ k rows for each of (r, Male) and (r, Female), which
// together need ≥ 2k visible r cells. r is the most frequent region with
// support in [3k−2, 6k] and more than k rows of each sex. The core is padded
// with up to five EDUCATION constraints on values with support in
// [k+1, 8k], each demanding one preserved cluster: they add nothing to the
// conflict but multiply the candidate products chronological search must
// exhaust.
func denseSigma(rel *relation.Relation, k int) (constraint.Set, error) {
	count := func(c constraint.Constraint) int {
		b, err := c.Bound(rel)
		if err != nil {
			return 0
		}
		return b.CountIn(rel)
	}
	var sigma constraint.Set
	for _, r := range valuesBySupport(rel, "REGION", 3*k-2, 6*k) {
		male := constraint.NewMulti([]string{"REGION", "SEX"}, []string{r, "Male"}, k, rel.Len())
		female := constraint.NewMulti([]string{"REGION", "SEX"}, []string{r, "Female"}, k, rel.Len())
		if count(male) > k && count(female) > k {
			sigma = constraint.Set{constraint.New("REGION", r, 0, 2*k-2), male, female}
			break
		}
	}
	if sigma == nil {
		return nil, fmt.Errorf("no REGION value with more than %d rows of each sex at |R|=%d", k, rel.Len())
	}
	padders := valuesBySupport(rel, "EDUCATION", k+1, 8*k)
	for _, e := range padders[:min(len(padders), densePadders)] {
		c := constraint.New("EDUCATION", e, 0, 0)
		c.Lower, c.Upper = k, count(c)
		sigma = append(sigma, c)
	}
	return sigma, nil
}

// valuesBySupport lists attr's values occurring between lo and hi times,
// most frequent first, ties broken by value.
func valuesBySupport(rel *relation.Relation, attr string, lo, hi int) []string {
	idx, ok := rel.Schema().Index(attr)
	if !ok {
		return nil
	}
	type support struct {
		value string
		n     int
	}
	var vs []support
	for code, n := range rel.ValueFrequencies(idx) {
		if code != relation.StarCode && n >= lo && n <= hi {
			vs = append(vs, support{rel.Dict(idx).Value(code), n})
		}
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].n != vs[j].n {
			return vs[i].n > vs[j].n
		}
		return vs[i].value < vs[j].value
	})
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.value
	}
	return out
}

// options configures one request: single-threaded (sequential Mondrian, no
// portfolio, no shards), with the ledger, canonical log and ops profiling
// left off, and a fresh Rng so every request of a run is identical.
func (w *Workload) options(seed uint64, tr trace.Tracer) core.Options {
	return core.Options{
		K:           w.K,
		Strategy:    w.Strategy,
		Rng:         rand.New(rand.NewPCG(seed, seed^0xabcdef12345)),
		MaxSteps:    w.MaxSteps,
		Nogoods:     w.Nogoods,
		Parallelism: 1,
		Tracer:      tr,
	}
}

// request sends one request to the engine.
func (w *Workload) request(rel *relation.Relation, sigma constraint.Set, seed uint64, tr trace.Tracer) (*core.Result, error) {
	return core.Anonymize(context.Background(), rel, sigma, w.options(seed, tr))
}

// check validates one request's result against the workload's expected
// verdict, the independent invariant checker and the fidelity pins. first
// is the run's first result, which every later request must repeat; it is
// nil when res is the first. It returns how long output validation took.
func (w *Workload) check(rel *relation.Relation, sigma constraint.Set, res *core.Result, err error, first *core.Result) (time.Duration, error) {
	if got := core.RunOutcome(err); got != w.Expect {
		return 0, fmt.Errorf("verdict %q, want %q (error: %v)", got, w.Expect, err)
	}
	st := res.Stats
	if w.ExhaustBudget && st.Steps != w.MaxSteps+1 {
		return 0, fmt.Errorf("%d visits, want the budget plus one (%d)", st.Steps, w.MaxSteps+1)
	}
	if w.Pin != nil {
		if got := (Pin{st.Steps, st.NogoodsLearned, st.Backjumps}); got != *w.Pin {
			return 0, fmt.Errorf("visits/nogoods/backjumps %d/%d/%d, want %d/%d/%d as in BENCH_nogood.json",
				got.Visits, got.Nogoods, got.Backjumps, w.Pin.Visits, w.Pin.Nogoods, w.Pin.Backjumps)
		}
	}
	if first != nil {
		f := first.Stats
		if st.Steps != f.Steps || st.Backtracks != f.Backtracks || st.NogoodsLearned != f.NogoodsLearned || st.Backjumps != f.Backjumps {
			return 0, fmt.Errorf("search counters %d/%d/%d/%d differ from the first request's %d/%d/%d/%d",
				st.Steps, st.Backtracks, st.NogoodsLearned, st.Backjumps, f.Steps, f.Backtracks, f.NogoodsLearned, f.Backjumps)
		}
	}
	if res.Output == nil {
		return 0, nil
	}
	stars := res.Metrics.SuppressedCells
	if first != nil && stars != first.Metrics.SuppressedCells {
		return 0, fmt.Errorf("%d stars, the first request published %d", stars, first.Metrics.SuppressedCells)
	}
	start := time.Now()
	rep := verify.ValidateOutput(rel, res.Output, sigma, w.K, verify.Options{
		SkipContainment: w.SkipContainment,
		CheckStars:      true,
		Stars:           stars,
	})
	return time.Since(start), rep.Err()
}
