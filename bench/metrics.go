package main

// Metric definitions and the arithmetic behind them. The names and units
// here are the ones BENCHMARK.json declares; the smoke test pins the two
// against each other.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"airct/internal/serve"
)

// metric is one reported number. Samples, when set, is how many
// observations it summarises.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricDef struct{ name, unit string }

// stageNames are the portfolio stages with a per-stage attribution.
var stageNames = []string{"full", "weak-acyclicity", "joint-acyclicity", "jointree-prune", "mfa", "probe", "sticky", "guarded"}

var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"decided_frac", "frac"},
	{"peak_rss_mb", "MiB"},
}

// layerDefs lists every per-layer metric: first those of the traced run,
// then those of the end-to-end run's responses and /v1/stats deltas.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"client.transport_us_p50", "us"},
		{"serve.handler_us_p50", "us"},
		{"serve.self_us_p50", "us"},
		{"serve.codec_us_p50", "us"},
		{"parser.parse_us_p50", "us"},
		{"fingerprint.us_p50", "us"},
		{"serve.flight_us_p50", "us"},
		{"portfolio.replay_us_p50", "us"},
		{"portfolio.self_us_p50", "us"},
		{"core.analyze_us_p50", "us"},
	}
	for _, s := range stageNames {
		defs = append(defs, metricDef{"stage." + s + ".busy_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"runtime.alloc_kb_per_req", "KiB"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"trace.coverage_frac", "frac"},
		metricDef{"host.probe_ms", "ms"},
	)
	for _, s := range stageNames {
		defs = append(defs,
			metricDef{"stage." + s + ".attempts", "count"},
			metricDef{"stage." + s + ".decide_frac", "frac"})
	}
	return append(defs,
		metricDef{"guarded.probe.seeds", "count"},
		metricDef{"guarded.probe.depth_mean", "count"},
		metricDef{"sticky.states", "count"},
		metricDef{"chase.search.states_per_s", "1/s"},
		metricDef{"chase.search.states_expanded", "count"},
		metricDef{"chase.search.memo_hit_frac", "frac"},
		metricDef{"chase.search.index_repair_frac", "frac"},
		metricDef{"chase.search.activity_rechecks", "count"},
		metricDef{"chase.engine.runs", "count"},
		metricDef{"chase.engine.activity_checks", "count"},
		metricDef{"chase.engine.delta_rechecks", "count"},
		metricDef{"chase.engine.seed_index_hits", "count"},
		metricDef{"chase.cache.hit_frac", "frac"},
		metricDef{"chase.cache.misses", "count"},
		metricDef{"chase.cache.bytes", "bytes"},
		metricDef{"chase.cache.entries", "count"},
		metricDef{"chase.cache.evictions", "count"},
		metricDef{"chase.snapshot.load_ms", "ms"},
		metricDef{"chase.snapshot.bytes", "bytes"},
		metricDef{"serve.flights.started", "count"},
		metricDef{"serve.flights.shed", "count"},
		metricDef{"serve.flights.cancelled", "count"},
	)
}()

// metrics is a named set of measurements; set checks every name against
// its definition list so a typo cannot invent a metric.
type metrics map[string]metric

func (m metrics) set(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.name == name {
			m[name] = metric{Value: v, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic(fmt.Sprintf("bench: undefined metric %q", name))
}

// fill reports every defined metric not yet set as 0 with no samples.
func (m metrics) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{Unit: d.unit}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// medianOfParts splits xs into k consecutive parts of equal size and
// returns the median of their p-quantiles.
func medianOfParts(xs []float64, k int, p float64) float64 {
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], p)
	}
	return median(qs)
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally summarises a phase's outcomes against the oracle.
type tally struct {
	attempted, failed, wrong, decided int
	wrongNames                        []string
}

func (t *tally) add(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		t.attempted++
		if !o.ok() {
			t.failed++
			continue
		}
		dec, wrong := judge(o.req.truth, o.verdict)
		if dec {
			t.decided++
		}
		if wrong {
			t.wrong++
			t.wrongNames = append(t.wrongNames, fmt.Sprintf("%s %s: got %s, want %s", o.req.endpoint, o.req.name, o.verdict, o.req.truth))
		}
	}
}

// latencies returns the successful outcomes' latencies in ms.
func latencies(outs []outcome) []float64 {
	lat := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.ok() {
			lat = append(lat, ms(o.latency))
		}
	}
	return lat
}

// responseLayers derives the per-stage and decider counters from the
// portfolio responses that ran live (a cache replay runs no stage).
func responseLayers(outs []outcome, m metrics) {
	attempts := map[string]int{}
	decided := map[string]int{}
	var probeSeeds, probeDepth, probes, stickyStates, stickies float64
	for _, o := range outs {
		if !o.ok() || o.cacheHit {
			continue
		}
		for _, s := range o.stages {
			if strings.HasPrefix(s.Detail, "skipped") || strings.HasPrefix(s.Detail, "cancelled") {
				continue
			}
			attempts[s.Name]++
			if s.Decided {
				decided[s.Name]++
			}
			switch s.Name {
			case "probe":
				probes++
				probeSeeds += float64(s.Seeds)
				probeDepth += float64(s.Depth)
			case "sticky":
				stickies++
				stickyStates += float64(s.Steps)
			}
		}
	}
	for _, s := range stageNames {
		m.set(layerDefs, "stage."+s+".attempts", float64(attempts[s]), 0)
		m.set(layerDefs, "stage."+s+".decide_frac", frac(float64(decided[s]), float64(attempts[s])), attempts[s])
	}
	m.set(layerDefs, "guarded.probe.seeds", frac(probeSeeds, probes), int(probes))
	m.set(layerDefs, "guarded.probe.depth_mean", frac(probeDepth, probes), int(probes))
	m.set(layerDefs, "sticky.states", frac(stickyStates, stickies), int(stickies))
}

// statsLayers derives the counters of /v1/stats between two reads. existsMS
// is the summed server time of the phase's exists answers.
func statsLayers(a, b serve.StatsResponse, existsMS float64, m metrics) {
	ex := func(f func(serve.StatsResponse) int) float64 { return float64(f(b) - f(a)) }
	expanded := ex(func(s serve.StatsResponse) int { return s.Exists.StatesExpanded })
	memo := ex(func(s serve.StatsResponse) int { return s.Exists.MemoHits })
	repairs := ex(func(s serve.StatsResponse) int { return s.Exists.IndexRepairs })
	rebuilds := ex(func(s serve.StatsResponse) int { return s.Exists.IndexRebuilds })
	m.set(layerDefs, "chase.search.states_per_s", frac(expanded, existsMS/1e3), 0)
	m.set(layerDefs, "chase.search.states_expanded", expanded, 0)
	m.set(layerDefs, "chase.search.memo_hit_frac", frac(memo, memo+expanded), 0)
	m.set(layerDefs, "chase.search.index_repair_frac", frac(repairs, repairs+rebuilds), 0)
	m.set(layerDefs, "chase.search.activity_rechecks", ex(func(s serve.StatsResponse) int { return s.Exists.ActivityRechecks }), 0)

	d := func(f func(serve.StatsResponse) int64) float64 { return float64(f(b) - f(a)) }
	m.set(layerDefs, "chase.engine.runs", d(func(s serve.StatsResponse) int64 { return s.Activity.Runs }), 0)
	m.set(layerDefs, "chase.engine.activity_checks", d(func(s serve.StatsResponse) int64 { return s.Activity.ActivityChecks }), 0)
	m.set(layerDefs, "chase.engine.delta_rechecks", d(func(s serve.StatsResponse) int64 { return s.Activity.DeltaRechecks }), 0)
	m.set(layerDefs, "chase.engine.seed_index_hits", d(func(s serve.StatsResponse) int64 { return s.Activity.SeedIndexHits }), 0)

	hits := d(func(s serve.StatsResponse) int64 { return s.Cache.Hits })
	misses := d(func(s serve.StatsResponse) int64 { return s.Cache.Misses })
	m.set(layerDefs, "chase.cache.hit_frac", frac(hits, hits+misses), 0)
	m.set(layerDefs, "chase.cache.misses", misses, 0)
	m.set(layerDefs, "chase.cache.bytes", float64(b.Cache.Bytes), 0)
	m.set(layerDefs, "chase.cache.entries", float64(b.Cache.Entries), 0)
	m.set(layerDefs, "chase.cache.evictions", d(func(s serve.StatsResponse) int64 { return s.Cache.Evictions }), 0)

	m.set(layerDefs, "serve.flights.started", d(func(s serve.StatsResponse) int64 { return s.Flights.Started }), 0)
	m.set(layerDefs, "serve.flights.shed", d(func(s serve.StatsResponse) int64 { return s.Flights.Shed }), 0)
	m.set(layerDefs, "serve.flights.cancelled", d(func(s serve.StatsResponse) int64 { return s.Flights.Cancelled }), 0)
}
