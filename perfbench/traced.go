package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"diva/internal/core"
	"diva/internal/trace"
)

// Span is one timed interval of a traced run: a request, or one engine
// phase parented to its request. Spans of one request share Request.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Seconds is the span's duration.
func (s Span) Seconds() float64 { return time.Duration(s.EndNS - s.StartNS).Seconds() }

// requestCounts are the events one traced request emitted, by layer; the
// span file records them per request.
type requestCounts struct {
	Events          int           `json:"events"`
	Enumerations    int           `json:"candidate_events"`
	Candidates      int           `json:"candidates"`
	CacheHits       int           `json:"cache_hit_events"`
	Splits          int           `json:"split_events"`
	Leaves          int           `json:"leaf_events"`
	SplitTime       time.Duration `json:"split_ns"`
	Nogoods         int           `json:"nogood_events"`
	Backjumps       int           `json:"backjump_events"`
	ColorAllocBytes uint64        `json:"color_alloc_bytes"`
}

// layerTracer is the benchmark's trace.Tracer. It turns the engine's phase
// start/end events into spans parented to a per-request span and counts the
// per-layer events of the request. The engine calls it from one goroutine
// at a time (Options.Parallelism is 1 and there is no portfolio).
type layerTracer struct {
	epoch   time.Time
	spans   []Span
	request int // index of the open request span
	open    map[trace.Phase]int
	c       requestCounts
	allocs  []metrics.Sample
	color0  uint64
}

func newLayerTracer() *layerTracer {
	return &layerTracer{
		epoch:  time.Now(),
		open:   map[trace.Phase]int{},
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *layerTracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the span of request number req.
func (t *layerTracer) begin(req int) {
	t.c = requestCounts{}
	t.request = len(t.spans)
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Request: req, Name: "request", StartNS: t.now()})
}

// end closes the open request span.
func (t *layerTracer) end() { t.spans[t.request].EndNS = t.now() }

// heapAllocBytes is the cumulative heap allocation of the process.
func (t *layerTracer) heapAllocBytes() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// Trace implements trace.Tracer.
func (t *layerTracer) Trace(e trace.Event) {
	t.c.Events++
	switch e.Kind {
	case trace.KindPhaseStart:
		req := t.spans[t.request]
		t.open[e.Phase] = len(t.spans)
		t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: req.ID, Request: req.Request, Name: string(e.Phase), StartNS: t.now()})
		if e.Phase == trace.PhaseColor {
			t.color0 = t.heapAllocBytes()
		}
	case trace.KindPhaseEnd:
		if e.Phase == trace.PhaseColor {
			t.c.ColorAllocBytes += t.heapAllocBytes() - t.color0
		}
		if i, ok := t.open[e.Phase]; ok {
			t.spans[i].EndNS = t.now()
			delete(t.open, e.Phase)
		}
	case trace.KindCandidates:
		t.c.Enumerations++
		t.c.Candidates += e.N
	case trace.KindCacheHit:
		t.c.CacheHits++
	case trace.KindSplit:
		if e.Label == "" {
			t.c.Leaves++
		} else {
			t.c.Splits++
		}
		t.c.SplitTime += e.Elapsed
	case trace.KindNogood:
		t.c.Nogoods += max(e.N, 1)
	case trace.KindBackjump:
		t.c.Backjumps += max(e.N, 1)
	}
}

// phaseSeconds sums the phase spans of the open request by phase name.
func (t *layerTracer) phaseSeconds() map[string]float64 {
	req := t.spans[t.request]
	out := map[string]float64{}
	for _, s := range t.spans[t.request+1:] {
		if s.Parent == req.ID {
			out[s.Name] += s.Seconds()
		}
	}
	return out
}

// gcReading is a snapshot of the runtime's GC counters.
type gcReading struct {
	cycles uint64
	cpu    float64
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcReading{cycles: s[0].Value.Uint64(), cpu: s[1].Value.Float64()}
}

// requestLayers computes the per-request per-layer metrics of one traced
// request from its spans, its event counts, its result and its wall time.
func requestLayers(t *layerTracer, res *core.Result, wall float64, gc0, gc1 gcReading) map[string]float64 {
	ph := t.phaseSeconds()
	st := res.Stats
	c := t.c
	phases := 0.0
	for _, s := range ph {
		phases += s
	}
	m := map[string]float64{
		"constraint.bind_s":           ph[string(trace.PhaseBind)],
		"search.build_graph_s":        ph[string(trace.PhaseBuildGraph)],
		"search.color_s":              ph[string(trace.PhaseColor)],
		"core.suppress_s":             ph[string(trace.PhaseSuppress)],
		"anon.baseline_s":             ph[string(trace.PhaseBaseline)],
		"core.integrate_s":            ph[string(trace.PhaseIntegrate)],
		"core.verify_s":               ph[string(trace.PhaseVerify)],
		"core.overhead_s":             wall - phases,
		"core.repaired_cells":         float64(res.RepairedCells),
		"core.stars":                  float64(res.Metrics.SuppressedCells),
		"search.visits":               float64(st.Steps),
		"search.us_per_visit":         0,
		"search.bytes_per_visit":      0,
		"search.backtracks":           float64(st.Backtracks),
		"search.candidates_tried":     float64(st.CandidatesTried),
		"search.cache_hit_ratio":      ratio(st.CacheHits, st.CacheHits+st.CacheMisses),
		"search.nogoods_learned":      float64(st.NogoodsLearned),
		"search.nogood_hits":          float64(st.NogoodHits),
		"search.backjumps":            float64(st.Backjumps),
		"search.max_backjump":         float64(st.MaxBackjump),
		"cluster.enumerations":        float64(c.Enumerations),
		"cluster.candidates":          float64(c.Candidates),
		"cluster.candidates_per_enum": ratio(c.Candidates, c.Enumerations),
		"anon.splits":                 float64(c.Splits),
		"anon.leaves":                 float64(c.Leaves),
		"anon.split_s":                c.SplitTime.Seconds(),
		"trace.events":                float64(c.Events),
		"runtime.gc_cycles":           float64(gc1.cycles - gc0.cycles),
		"runtime.gc_cpu_s":            gc1.cpu - gc0.cpu,
	}
	if st.Steps > 0 {
		m["search.us_per_visit"] = ph[string(trace.PhaseColor)] / float64(st.Steps) * 1e6
		m["search.bytes_per_visit"] = float64(c.ColorAllocBytes) / float64(st.Steps)
	}
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans writes a traced run's environment, spans, per-request layer
// metrics and CPU shares to one JSON file under cfg.out.
func writeSpans(cfg config, env environment, lr *loopResult) error {
	type request struct {
		Index  int                `json:"index"`
		WallS  float64            `json:"wall_s"`
		Layers map[string]float64 `json:"layers"`
		Events requestCounts      `json:"events"`
	}
	var reqs []request
	for i, m := range lr.requests {
		if m.traced {
			reqs = append(reqs, request{Index: i, WallS: m.wall, Layers: m.layers, Events: m.events})
		}
	}
	doc := struct {
		Env      environment        `json:"env"`
		Spans    []Span             `json:"spans"`
		Requests []request          `json:"requests"`
		CPU      map[string]float64 `json:"cpu_self_share_by_package"`
	}{env, lr.tracer.spans, reqs, lr.shares}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload.Name, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
