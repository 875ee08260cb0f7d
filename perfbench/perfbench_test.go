package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"diva/internal/constraint"
	"diva/internal/relation"
)

// mustWorkload returns a copy of the named workload.
func mustWorkload(t *testing.T, name string) Workload {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return *w
}

// loaded generates w's inputs at seed and loads them once, as the program
// does.
func loaded(t *testing.T, w Workload, seed uint64) (Inputs, *relation.Relation, constraint.Set) {
	t.Helper()
	in, err := w.Inputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	w.SetupSamples, w.SetupLoads = 1, 1
	rel, sigma, _, err := w.setup(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, rel, sigma
}

// TestCensusPublishValidatesWithContainment runs the census-publish
// generator and request at a size where the Θ(|R|²) containment check is
// affordable, and validates the output with it.
func TestCensusPublishValidatesWithContainment(t *testing.T) {
	w := mustWorkload(t, "census-publish")
	w.Rows, w.SkipContainment = 3000, false
	_, rel, sigma := loaded(t, w, DefaultSeed)
	res, err := w.request(rel, sigma, DefaultSeed, nil)
	if _, cerr := w.check(rel, sigma, res, err, nil); cerr != nil {
		t.Fatal(cerr)
	}
	again, err := w.request(rel, sigma, DefaultSeed, nil)
	if _, cerr := w.check(rel, sigma, again, err, res); cerr != nil {
		t.Fatalf("second request: %v", cerr)
	}
}

// TestDenseFixtureFidelity checks that the dense workloads reproduce
// BENCH_nogood.json at the default seed and at another seed, whose inputs
// differ only in the sensitive columns.
func TestDenseFixtureFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dense fixture to its verdict")
	}
	for _, name := range []string{"dense-nogoods", "dense-chron"} {
		for _, seed := range []uint64{DefaultSeed, 7} {
			w := mustWorkload(t, name)
			_, rel, sigma := loaded(t, w, seed)
			res, err := w.request(rel, sigma, seed, nil)
			if _, cerr := w.check(rel, sigma, res, err, nil); cerr != nil {
				t.Errorf("%s seed %d: %v", name, seed, cerr)
			}
		}
	}
}

// TestDenseInputsVaryOnlySensitiveColumns checks that the seed changes the
// dense fixture's bytes but none of its quasi-identifier values.
func TestDenseInputsVaryOnlySensitiveColumns(t *testing.T) {
	w := mustWorkload(t, "dense-nogoods")
	inA, a, _ := loaded(t, w, DefaultSeed)
	inB, b, _ := loaded(t, w, 11)
	if bytes.Equal(inA.CSV, inB.CSV) {
		t.Fatal("seeds 11 and the default gave identical CSV bytes")
	}
	if !bytes.Equal(inA.Sigma, inB.Sigma) {
		t.Fatalf("Σ differs between seeds:\n%s\n%s", inA.Sigma, inB.Sigma)
	}
	qi := a.Schema().QIIndexes()
	for i := 0; i < a.Len(); i++ {
		for _, attr := range qi {
			if a.Value(i, attr) != b.Value(i, attr) {
				t.Fatalf("row %d attribute %d: %q vs %q", i, attr, a.Value(i, attr), b.Value(i, attr))
			}
		}
	}
}

// TestInputsDeterministic checks that one seed always gives the same bytes.
func TestInputsDeterministic(t *testing.T) {
	for _, name := range []string{"census-publish", "dense-chron"} {
		w := mustWorkload(t, name)
		w.Rows = min(w.Rows, 2000)
		a, err := w.Inputs(5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.Inputs(5)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.CSV, b.CSV) || !bytes.Equal(a.Sigma, b.Sigma) {
			t.Errorf("%s: seed 5 gave different inputs on two calls", name)
		}
	}
}

// TestCheckRejects checks that a wrong verdict and a changed counter are
// failures.
func TestCheckRejects(t *testing.T) {
	w := mustWorkload(t, "dense-chron")
	w.MaxSteps = 200
	_, rel, sigma := loaded(t, w, DefaultSeed)
	res, err := w.request(rel, sigma, DefaultSeed, nil)
	if _, cerr := w.check(rel, sigma, res, err, nil); cerr != nil {
		t.Fatalf("budget 200: %v", cerr)
	}
	wrong := w
	wrong.Expect = "ok"
	if _, cerr := wrong.check(rel, sigma, res, err, nil); cerr == nil {
		t.Error("an infeasible verdict passed a workload expecting ok")
	}
	other := *res
	other.Stats.Steps++
	if _, cerr := w.check(rel, sigma, &other, err, res); cerr == nil {
		t.Error("a request with one more visit than the first passed")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"diva/internal/cluster.(*Enumerator).Candidates": "diva/internal/cluster",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":             "internal/runtime/maps",
		"slices.pdqsortCmpFunc[go.shape.int]":                      "slices",
		"sort.Slice":                                               "sort",
		"diva/internal/search.(*Graph).Color.func1":                "diva/internal/search",
		"slices.SortFunc[go.shape.[]diva/internal/rowset.Set,...]": "slices",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	spinSink = x
}

// TestAddPackageTime profiles a busy loop in this package and checks that
// the decoder attributes most of the self time to it.
func TestAddPackageTime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	byPkg := map[string]int64{}
	if err := addPackageTime(byPkg, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	s := shares(byPkg)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	if len(s) > 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("shares sum to %v", sum)
	}
	if s["diva/perfbench"] < 0.5 {
		t.Errorf("busy loop got %.2f of the self time; shares %v", s["diva/perfbench"], s)
	}
}

// TestBenchmarkJSON checks that every workload BENCHMARK.json names is one
// this program runs (dense-chron is runnable but not in the gated set), and
// that its metrics are exactly the ones the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) == 0 {
		t.Error("BENCHMARK.json names no workloads")
	}
	for _, w := range doc.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, c := range []struct {
		doc  []struct{ Name, Unit string }
		want []metricSpec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		var got []metricSpec
		for _, m := range c.doc {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("BENCHMARK.json metrics %v, program reports %v", got, c.want)
		}
	}
}

// TestRun drives the command end to end on one short run per mode and
// checks the shape of the last line.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dense fixture")
	}
	for _, c := range []struct {
		trace string
		specs []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "dense-nogoods", "--seed", "3", "--seconds", "0.01", "--trace", c.trace, "--out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", c.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("trace %s: %+v", c.trace, res)
		}
		if len(res.Metrics) != len(c.specs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(res.Metrics), len(c.specs))
		}
		for _, s := range c.specs {
			if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("trace %s: metric %s = %+v", c.trace, s.name, m)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dense-chron", "--trace", "2"},
		{"--workload", "dense-chron", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v", got)
	}
	for n, want := range map[int]int{5: 0, 19: 0, 20: 50, 40: 75, 100: 90, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}
