package main

// The traced run: a shorter prefix of a workload's stream replayed over one
// loopback connection against an in-process serve.New with the daemon's
// configuration. Spans are recorded only here, around calls into each
// layer's public functions, and kept in memory until the run ends:
//
//   - client.request: the client's send → decoded answer;
//   - serve.handler: Server.Handler().ServeHTTP, timed by a wrapping handler;
//   - serve.flight: the answer's elapsed-ms, the handler's own timing of
//     admission, singleflight and the analysis;
//   - portfolio.stage.<s>, portfolio.replay, core.analyze, chase.search:
//     the flight's children, from the answer's stages[] and kind;
//   - serve.codec.decode, parser.parse, fingerprint, serve.codec.encode:
//     re-timed after the run by calling json (on the serve wire types),
//     parser.Parse, tgds.Set.Fingerprint and logic.FingerprintAtoms on the
//     request's exact input. All are free of side effects.
//
// The handler does decode, parse, fingerprint, flight and encode in that
// order, so the spans are laid out in that order inside serve.handler; only
// their durations are measured, not their offsets. serve.self is the
// handler's time outside those five, client.transport the request's time
// outside the handler.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"time"

	"airct/internal/chase"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/serve"
)

// span is one timed section of one request's work. Parent is 0 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// workloadTrace is one workload's spans in trace.json.
type workloadTrace struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(parent, req int, name string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := us(start.Sub(t.origin))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: req, Name: name, StartUS: s, EndUS: s + us(d)})
	return id
}

// handlerClock records the handler span of each request, keyed by the
// X-Bench-Request header the client sets.
type handlerClock struct {
	mu    sync.Mutex
	start map[int]time.Time
	dur   map[int]time.Duration
}

const requestHeader = "X-Bench-Request"

func (hc *handlerClock) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		id, err := strconv.Atoi(r.Header.Get(requestHeader))
		if err != nil {
			return
		}
		hc.mu.Lock()
		hc.start[id], hc.dur[id] = start, d
		hc.mu.Unlock()
	})
}

func (hc *handlerClock) get(id int) (time.Time, time.Duration, bool) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	start, ok := hc.start[id]
	return start, hc.dur[id], ok
}

// traceConfig bounds a traced run.
type traceConfig struct {
	wl          string
	seed        int64
	cat         *catalog
	cache       *chase.Cache
	duration    time.Duration
	maxRequests int
	e2eP50      float64 // the end-to-end run's p50 in ms, for trace.overhead_frac
}

// tracedRun replays the stream prefix and returns the traced-run metrics,
// the spans and the answers.
func tracedRun(cfg traceConfig) (metrics, []span, []outcome, error) {
	srv := serve.New(serve.Config{
		Cache:          cfg.cache,
		DefaultTimeout: daemonRequestTimeout,
		MaxTimeout:     daemonRequestTimeout,
		Workers:        daemonWorkers,
	})
	defer srv.Close()
	clock := &handlerClock{start: map[int]time.Time{}, dur: map[int]time.Duration{}}
	ts := httptest.NewServer(clock.wrap(srv.Handler()))
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()

	s, err := newStream(cfg.wl, cfg.cat, cfg.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := warmUp(c, s); err != nil {
		return nil, nil, nil, err
	}
	d := &dispenser{s: s, deadline: time.Now().Add(cfg.duration), maxRequests: cfg.maxRequests}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPU()
	var outs []outcome
	for i := 0; ; i++ {
		r, ok := d.next()
		if !ok {
			break
		}
		o := c.send(r, http.Header{requestHeader: {strconv.Itoa(i)}})
		if !o.ok() {
			return nil, nil, nil, fmt.Errorf("traced %s %s: status %d: %v", r.endpoint, r.name, o.status, o.err)
		}
		outs = append(outs, o)
	}
	cpu1 := readCPU()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if len(outs) == 0 {
		return nil, nil, nil, fmt.Errorf("traced run of %s sent no request", cfg.wl)
	}

	m := metrics{}
	m.set(layerDefs, "runtime.alloc_kb_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(len(outs)), len(outs))
	m.set(layerDefs, "runtime.gc_cpu_frac", frac(cpu1.gc-cpu0.gc, cpu1.total-cpu0.total), len(outs))

	t := &tracer{origin: outs[0].start}
	var (
		request, transport, handler, self, codec, parse, fp, flight []float64
		replay, pfSelf, analyze                                     []float64
	)
	busy := map[string]float64{}
	for i, o := range outs {
		hStart, hDur, ok := clock.get(i)
		if !ok {
			return nil, nil, nil, fmt.Errorf("traced request %d never reached the handler", i)
		}
		lay, err := retime(o.req, o.raw)
		if err != nil {
			return nil, nil, nil, err
		}
		fl := time.Duration(o.elapsed * float64(time.Millisecond))

		root := t.add(0, i, "client.request", o.start, o.latency)
		h := t.add(root, i, "serve.handler", hStart, hDur)
		at := hStart
		for _, part := range []struct {
			name string
			d    time.Duration
		}{{"serve.codec.decode", lay.decode}, {"parser.parse", lay.parse}, {"fingerprint", lay.fingerprint}} {
			t.add(h, i, part.name, at, part.d)
			at = at.Add(part.d)
		}
		f := t.add(h, i, "serve.flight", at, fl)
		t.add(h, i, "serve.codec.encode", hStart.Add(hDur-lay.encode), lay.encode)

		switch {
		case o.req.endpoint == epExists:
			t.add(f, i, "chase.search", at, fl)
		case o.req.endpoint == epDecide:
			t.add(f, i, "core.analyze", at, fl)
			analyze = append(analyze, us(fl))
		case o.cacheHit:
			t.add(f, i, "portfolio.replay", at, fl)
			replay = append(replay, us(fl))
		default:
			var staged time.Duration
			for _, st := range o.stages {
				sd := time.Duration(st.ElapsedMS * float64(time.Millisecond))
				t.add(f, i, "portfolio.stage."+st.Name, at.Add(staged), sd)
				staged += sd
				busy[st.Name] += st.ElapsedMS
			}
			pfSelf = append(pfSelf, us(fl-staged))
		}

		cd := lay.decode + lay.encode
		request = append(request, us(o.latency))
		transport = append(transport, us(o.latency-hDur))
		handler = append(handler, us(hDur))
		self = append(self, us(hDur-fl-cd-lay.parse-lay.fingerprint))
		codec = append(codec, us(cd))
		parse = append(parse, us(lay.parse))
		fp = append(fp, us(lay.fingerprint))
		flight = append(flight, us(fl))
	}
	p50 := func(name string, xs []float64) { m.set(layerDefs, name, median(xs), len(xs)) }
	p50("client.transport_us_p50", transport)
	p50("serve.handler_us_p50", handler)
	p50("serve.self_us_p50", self)
	p50("serve.codec_us_p50", codec)
	p50("parser.parse_us_p50", parse)
	p50("fingerprint.us_p50", fp)
	p50("serve.flight_us_p50", flight)
	p50("portfolio.replay_us_p50", replay)
	p50("portfolio.self_us_p50", pfSelf)
	p50("core.analyze_us_p50", analyze)
	for _, st := range stageNames {
		m.set(layerDefs, "stage."+st+".busy_ms", busy[st], 0)
	}
	reqP50 := median(request)
	m.set(layerDefs, "trace.overhead_frac", frac(reqP50/1e3, cfg.e2eP50)-1, len(request))
	// Coverage: on the requests around the median, the share of the request
	// span that measured spans cover, i.e. everything but serve.self.
	covered, total, near := 0.0, 0.0, 0
	lo, hi := percentile(request, 0.45), percentile(request, 0.55)
	for i, r := range request {
		if r >= lo && r <= hi {
			covered += r - self[i]
			total += r
			near++
		}
	}
	m.set(layerDefs, "trace.coverage_frac", frac(covered, total), near)
	return m, t.spans, outs, nil
}

// layerTimes are one request's re-timed serve-layer calls.
type layerTimes struct {
	decode, encode, parse, fingerprint time.Duration
}

// retime times the codec, parser and fingerprint work of one request on
// its exact input and answer.
func retime(r request, answer []byte) (layerTimes, error) {
	var lt layerTimes
	_, raw, err := body(r)
	if err != nil {
		return lt, err
	}
	var req, resp any = &serve.DecideRequest{}, &serve.DecideResponse{}
	if r.endpoint == epExists {
		req, resp = &serve.ExistsRequest{}, &serve.ExistsResponse{}
	}
	start := time.Now()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err = dec.Decode(req)
	lt.decode = time.Since(start)
	if err != nil {
		return lt, fmt.Errorf("re-decoding %s: %w", r.name, err)
	}
	if err := json.Unmarshal(answer, resp); err != nil {
		return lt, fmt.Errorf("decoding the answer to %s: %w", r.name, err)
	}
	var buf bytes.Buffer
	buf.Grow(len(answer))
	start = time.Now()
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err = enc.Encode(resp)
	lt.encode = time.Since(start)
	if err != nil {
		return lt, err
	}
	start = time.Now()
	prog, err := parser.Parse(r.program)
	lt.parse = time.Since(start)
	if err != nil {
		return lt, fmt.Errorf("re-parsing %s: %w", r.name, err)
	}
	start = time.Now()
	fingerprintSink = prog.TGDs.Fingerprint().Merge(logic.FingerprintAtoms(prog.Database.Atoms()))
	lt.fingerprint = time.Since(start)
	return lt, nil
}

// fingerprintSink keeps the re-timed fingerprint calls from being optimised
// away.
var fingerprintSink logic.Fingerprint

type cpuTimes struct{ gc, total float64 }

// readCPU reads the runtime's estimate of GC and total CPU seconds.
func readCPU() cpuTimes {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}
