// Package serve is the serving front end: a long-lived HTTP/JSON analysis
// server wrapping the library's decision procedures behind a request API,
// so the cross-run chase cache finally compounds across requests instead of
// dying with each termcheck process.
//
// Endpoints (all JSON):
//
//	POST /v1/decide  — CT^res_∀∀ of the program's rules: the flat report
//	                   (portfolio.Report), or the staged cascade
//	                   (portfolio.Analyze) with portfolio=true; facts are
//	                   not read
//	POST /v1/exists  — CT^res_∀∃ on the program's database via
//	                   chase.SearchTerminatingDerivationContext
//	GET  /v1/stats   — cache / trigger-index / portfolio / serving counters
//	GET  /healthz    — liveness
//
// Three serving mechanisms wrap the procedures:
//
//   - ONE shared chase.Cache. Every request reads and writes the same
//     cache, loaded from a snapshot at startup and snapshotted back on a
//     background cadence and at graceful shutdown (Snapshotter), so the
//     141×/388× warm wins measured per-process become the steady state.
//   - Singleflight dedup (singleflight.go). Identical concurrent requests
//     — equal TGD-set fingerprint, question and budgets, and for exists
//     equal facts — share one underlying analysis; a thundering herd runs
//     one decide. Followers are free: only flight leaders occupy the pool.
//   - Budgeted admission. A bounded slot pool gates flight leaders; when
//     every slot is busy a new leader is shed with 429 immediately instead
//     of queuing unboundedly. Per-request deadlines map onto
//     context.WithTimeout over the engine's existing context plumbing, and
//     a flight whose every client disconnected is cancelled promptly.
//
// Verdicts served over HTTP are pinned bit-identical to in-process
// analysis by the e2e conformance suite (serve_test.go and the root
// conformance matrix's served column).
package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/logic"
	"airct/internal/portfolio"
	"airct/internal/sticky"
)

// errShed marks a request rejected by the admission gate.
var errShed = errors.New("serve: admission pool full")

// Config configures a Server. The zero value works: fresh default cache,
// 2×GOMAXPROCS admission slots, CLI-default budgets, no timeouts, no
// snapshotter. Request budgets above the caps in codec.go are refused
// whatever the config.
type Config struct {
	// Cache is the shared cross-run cache (nil: a fresh default cache).
	Cache *chase.Cache
	// MaxInflight bounds concurrently executing flight leaders; further
	// leaders are shed with 429 (0: 2×GOMAXPROCS, minimum 2). Followers
	// joining an existing flight never consume a slot.
	MaxInflight int
	// DefaultTimeout applies to requests that carry no timeout-ms (0:
	// unbounded).
	DefaultTimeout time.Duration
	// MaxTimeout caps requested timeouts (0: uncapped).
	MaxTimeout time.Duration
	// Workers is ignored: every analysis runs on its request's goroutine.
	//
	// Deprecated: accepted so that existing callers still compile; it has
	// no effect.
	Workers int
	// Snapshot, when set, is reported by /v1/stats. The server does not
	// drive it — the owner (the daemon) ticks and closes it.
	Snapshot *Snapshotter
	// Logf receives serving-layer diagnostics (nil: silent).
	Logf func(format string, args ...any)
}

type metrics struct {
	requestsDecide   atomic.Int64
	requestsExists   atomic.Int64
	requestsStats    atomic.Int64
	requestsHealth   atomic.Int64
	flightsStarted   atomic.Int64
	flightsDeduped   atomic.Int64
	flightsCancelled atomic.Int64
	flightPanics     atomic.Int64
	requestsShed     atomic.Int64

	mu             sync.Mutex
	existsAgg      chase.SearchStats
	portfolioTally map[string]int64
}

// Server hosts the analysis API. Create with New; Server methods are safe
// for concurrent use.
type Server struct {
	cfg     Config
	cache   *chase.Cache
	gate    chan struct{}
	flights flightTable
	metrics metrics
	start   time.Time
	mux     *http.ServeMux

	baseCtx context.Context
	stopAll context.CancelFunc
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		cfg.Cache = chase.NewCache()
	}
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 2 * runtime.GOMAXPROCS(0)
		if inflight < 2 {
			inflight = 2
		}
	}
	s := &Server{
		cfg:   cfg,
		cache: cfg.Cache,
		gate:  make(chan struct{}, inflight),
		start: time.Now(),
		mux:   http.NewServeMux(),
	}
	s.baseCtx, s.stopAll = context.WithCancel(context.Background())
	s.metrics.portfolioTally = make(map[string]int64)
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/v1/exists", s.handleExists)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every in-flight analysis (shutdown). In-flight HTTP
// connections are the http.Server's business; Close only stops the
// detached flight work.
func (s *Server) Close() { s.stopAll() }

// timeoutFor resolves a request's wall-clock budget against the server's
// default and cap. timeout-ms is compared in milliseconds before it
// becomes a Duration, so a value past the largest Duration saturates
// instead of wrapping to a short or negative one.
func (s *Server) timeoutFor(requestedMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if requestedMS > 0 {
		d = time.Duration(math.MaxInt64)
		if requestedMS <= math.MaxInt64/int64(time.Millisecond) {
			d = time.Duration(requestedMS) * time.Millisecond
		}
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// finish maps a flight's outcome onto the response writer: sheds, client
// departures and analysis errors end here; a nil error hands the value
// back for the endpoint to render.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, val any, err error) (any, bool) {
	switch {
	case err == nil:
		return val, true
	case errors.Is(err, errShed):
		writeError(w, http.StatusTooManyRequests, "server is at capacity; retry later")
	case errors.Is(r.Context().Err(), context.Canceled), errors.Is(r.Context().Err(), context.DeadlineExceeded):
		// The client is gone; nothing to write.
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request timeout exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return nil, false
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsDecide.Add(1)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req DecideRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := req.checkCaps(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	prog, err := parseProgram(req.Program)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	guardedBudget := orDefault(req.GuardedBudget, guarded.DefaultMaxSteps)
	stickyStates := orDefault(req.StickyStates, sticky.DefaultMaxStates)
	key := flightKey{
		set:  prog.TGDs.Fingerprint(),
		salt: decideSalt(req.Portfolio, guardedBudget, stickyStates),
	}
	start := time.Now()
	val, shared, err := s.doFlight(r.Context(), key, s.timeoutFor(req.TimeoutMS), func(ctx context.Context) (any, error) {
		opts := portfolio.Options{
			Guarded: guarded.DecideOptions{MaxSteps: guardedBudget},
			Sticky:  sticky.DecideOptions{MaxStates: stickyStates},
			Cache:   s.cache,
		}
		if !req.Portfolio {
			rep, err := portfolio.Report(ctx, prog.TGDs, opts)
			if err != nil {
				return nil, err
			}
			return decideResponseOf(rep), nil
		}
		res, err := portfolio.Analyze(ctx, prog.TGDs, opts)
		if err != nil {
			return nil, err
		}
		s.tallyPortfolio(res)
		return portfolioResponseOf(res), nil
	})
	val, ok := s.finish(w, r, val, err)
	if !ok {
		return
	}
	resp := val.(DecideResponse)
	resp.Shared = shared
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExists(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsExists.Add(1)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req ExistsRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := req.checkCaps(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	prog, err := parseProgram(req.Program)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if prog.Database.Len() == 0 {
		writeError(w, http.StatusBadRequest, "exists needs facts in the program (the question is per-database)")
		return
	}
	if prog.TGDs.HasEGDs() {
		writeError(w, http.StatusBadRequest, "exists is TGD-only: the derivation search does not model equality steps")
		return
	}
	maxStates := orDefault(req.MaxStates, chase.DefaultSearchStates)
	maxAtoms := orDefault(req.MaxAtoms, chase.DefaultSearchAtoms)
	key := flightKey{
		set:  prog.TGDs.Fingerprint(),
		inst: logic.FingerprintAtoms(prog.Database.Atoms()),
		salt: existsSalt(maxStates, maxAtoms),
	}
	start := time.Now()
	val, shared, err := s.doFlight(r.Context(), key, s.timeoutFor(req.TimeoutMS), func(ctx context.Context) (any, error) {
		res, err := chase.SearchTerminatingDerivationContext(ctx, prog.Database, prog.TGDs, chase.SearchOptions{
			MaxStates: maxStates,
			MaxAtoms:  maxAtoms,
			Cache:     s.cache,
		})
		if err != nil {
			return nil, err
		}
		s.tallyExists(res)
		return existsResponseOf(res), nil
	})
	val, ok := s.finish(w, r, val, err)
	if !ok {
		return
	}
	resp := val.(ExistsResponse)
	resp.Shared = shared
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsStats.Add(1)
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsHealth.Add(1)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Stats assembles the /v1/stats body.
func (s *Server) Stats() StatsResponse {
	out := StatsResponse{
		UptimeMS: time.Since(s.start).Milliseconds(),
		Requests: RequestStats{
			Decide: s.metrics.requestsDecide.Load(),
			Exists: s.metrics.requestsExists.Load(),
			Stats:  s.metrics.requestsStats.Load(),
			Health: s.metrics.requestsHealth.Load(),
		},
		Flights: FlightStats{
			Started:   s.metrics.flightsStarted.Load(),
			Deduped:   s.metrics.flightsDeduped.Load(),
			Shed:      s.metrics.requestsShed.Load(),
			Cancelled: s.metrics.flightsCancelled.Load(),
			Panics:    s.metrics.flightPanics.Load(),
		},
		Cache:    s.cache.Stats(),
		Activity: s.cache.ActivityTotals(),
	}
	s.metrics.mu.Lock()
	out.Exists = s.metrics.existsAgg
	out.Portfolio = make(map[string]int64, len(s.metrics.portfolioTally))
	for k, v := range s.metrics.portfolioTally {
		out.Portfolio[k] = v
	}
	s.metrics.mu.Unlock()
	if s.cfg.Snapshot != nil {
		out.Snapshot = s.cfg.Snapshot.Stats()
	}
	return out
}

// tallyExists aggregates one search's work counters — the serving-level
// `trigger-index:` line. A cache replay did no search and adds nothing:
// its Stats are the recorded search's, already counted when it ran.
func (s *Server) tallyExists(res *chase.ExistsResult) {
	if res.Replayed {
		return
	}
	s.metrics.mu.Lock()
	a := &s.metrics.existsAgg
	a.StatesExpanded += res.Stats.StatesExpanded
	a.MemoHits += res.Stats.MemoHits
	if res.Stats.PeakFrontier > a.PeakFrontier {
		a.PeakFrontier = res.Stats.PeakFrontier
	}
	a.IndexRepairs += res.Stats.IndexRepairs
	a.IndexRebuilds += res.Stats.IndexRebuilds
	a.ActivityRechecks += res.Stats.ActivityRechecks
	s.metrics.mu.Unlock()
}

// tallyPortfolio counts which stage decided — the serving-level digest of
// the `portfolio-stage:` lines. A probe that decided Diverges is the
// rejecting fast path; it is tallied separately from an accepting probe so
// /v1/stats can report reject-path hits.
func (s *Server) tallyPortfolio(res *portfolio.Result) {
	name := res.DecidedBy
	if name == "" {
		name = "undecided"
	} else if name == "probe" && res.Conclusion == core.Diverges {
		name = "probe-reject"
	}
	s.metrics.mu.Lock()
	s.metrics.portfolioTally[name]++
	s.metrics.mu.Unlock()
}
