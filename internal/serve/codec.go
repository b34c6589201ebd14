package serve

// The request/response codec: the JSON wire shapes of the daemon's API and
// the translation between them and the library's native types. Key naming
// follows the CLI's stats-line vocabulary (dash-separated, lower case) so a
// `cache:` line and the /v1/stats cache object read identically; the shape
// is pinned by the round-trip tests in internal/chase (CacheStats) and the
// e2e suite here.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/parser"
	"airct/internal/portfolio"
)

// maxRequestBytes bounds a request body; programs are small text.
const maxRequestBytes = 1 << 20

// DecideRequest asks the ∀∀ question (CT^res_∀∀ membership) of the
// program's TGD set. Zero-valued budgets take the server's defaults (the
// same defaults as the termcheck CLI). Facts in the program are not read:
// requests that differ only in facts get the same answer, as in
// `termcheck`.
type DecideRequest struct {
	// Program is the .chase program text (facts + TGDs).
	Program string `json:"program"`
	// Portfolio routes the decision through the staged decider portfolio
	// (stages reported per response) instead of the flat analysis.
	Portfolio bool `json:"portfolio,omitempty"`
	// GuardedBudget is the per-seed chase step budget (0:
	// guarded.DefaultMaxSteps; at most maxGuardedBudget).
	GuardedBudget int `json:"guarded-budget,omitempty"`
	// StickyStates bounds each sticky Büchi component (0:
	// sticky.DefaultMaxStates; at most maxStickyStates).
	StickyStates int `json:"sticky-states,omitempty"`
	// TimeoutMS bounds the request's wall clock (0: server default; capped
	// by the server's maximum).
	TimeoutMS int64 `json:"timeout-ms,omitempty"`
}

// Stage is one portfolio stage record on the wire.
type Stage struct {
	Name      string  `json:"name"`
	Tier      int     `json:"tier"`
	Decided   bool    `json:"decided"`
	Verdict   string  `json:"verdict"`
	Detail    string  `json:"detail"`
	Steps     int     `json:"steps"`
	Seeds     int     `json:"seeds,omitempty"`
	Saturated int     `json:"saturated,omitempty"`
	Depth     int     `json:"depth,omitempty"`
	Evidence  string  `json:"evidence,omitempty"`
	ElapsedMS float64 `json:"elapsed-ms"`
}

// DecideResponse carries the ∀∀ verdict. Reasons is the flat analysis'
// justification trail; Stages is the portfolio's ledger — exactly one of
// the two is populated, matching the request's Portfolio flag.
type DecideResponse struct {
	Verdict   string   `json:"verdict"`
	DecidedBy string   `json:"decided-by,omitempty"`
	Reasons   []string `json:"reasons,omitempty"`
	Stages    []Stage  `json:"stages,omitempty"`
	// CacheHit is true when the cascade (portfolio=true) replayed a whole
	// cached run. A flat decide reports false, replayed or not.
	CacheHit bool `json:"cache-hit"`
	// Shared is true when this request joined another in-flight identical
	// request instead of running its own analysis (singleflight).
	Shared    bool    `json:"shared"`
	ElapsedMS float64 `json:"elapsed-ms"`
}

// ExistsRequest asks the ∀∃ question: does the program's database admit a
// finite restricted chase derivation under the program's TGDs?
type ExistsRequest struct {
	Program string `json:"program"`
	// MaxStates bounds distinct instance states (0:
	// chase.DefaultSearchStates; at most maxExistsStates).
	MaxStates int `json:"max-states,omitempty"`
	// MaxAtoms bounds per-instance atoms (0: chase.DefaultSearchAtoms; at
	// most maxExistsAtoms).
	MaxAtoms  int   `json:"max-atoms,omitempty"`
	TimeoutMS int64 `json:"timeout-ms,omitempty"`
}

// ExistsResponse carries the ∀∃ verdict: found (a witness derivation is
// attached), exhausted (every derivation is infinite), budget (the state
// budget stopped the search) or cancelled (the request's deadline or
// disconnect stopped it; no semantic claim).
type ExistsResponse struct {
	Verdict string `json:"verdict"`
	// States counts distinct instances explored.
	States int `json:"states"`
	// Derivation is the witnessing trigger sequence when Verdict=found,
	// rendered exactly as `termcheck -exists` prints it.
	Derivation []string          `json:"derivation,omitempty"`
	Stats      chase.SearchStats `json:"stats"`
	Shared     bool              `json:"shared"`
	ElapsedMS  float64           `json:"elapsed-ms"`
}

// RequestStats tallies requests per endpoint.
type RequestStats struct {
	Decide int64 `json:"decide"`
	Exists int64 `json:"exists"`
	Stats  int64 `json:"stats"`
	Health int64 `json:"health"`
}

// FlightStats tallies the singleflight table's work: Started counts
// underlying analyses actually run, Deduped counts requests served by
// joining one, Shed counts 429s from the admission gate, Cancelled counts
// flights stopped by disconnect, timeout or shutdown, Panics counts
// flights whose analysis panicked (answered 500, daemon unharmed).
type FlightStats struct {
	Started   int64 `json:"started"`
	Deduped   int64 `json:"deduped"`
	Shed      int64 `json:"shed"`
	Cancelled int64 `json:"cancelled"`
	Panics    int64 `json:"panics"`
}

// SnapshotStats reports the background snapshotter's work.
type SnapshotStats struct {
	Path       string `json:"path,omitempty"`
	EveryMS    int64  `json:"every-ms"`
	Saves      int64  `json:"saves"`
	Errors     int64  `json:"errors"`
	LastUnixMS int64  `json:"last-unix-ms"`
}

// StatsResponse is the /v1/stats body: the shared cache's counters (the
// CLI's `cache:` line as JSON), the chase engine's aggregated runs and
// activity checks (its delta-rechecks and seed-index-hits are always 0),
// the aggregated ∀∃ search work including the trigger-index and
// activity-recheck counters (the `trigger-index:` line), per-stage
// portfolio decision tallies (the `portfolio-stage:` lines' decisive
// outcomes, with the probe's rejecting fast path broken out as
// "probe-reject") and the serving-layer counters.
type StatsResponse struct {
	UptimeMS  int64                `json:"uptime-ms"`
	Requests  RequestStats         `json:"requests"`
	Flights   FlightStats          `json:"flights"`
	Cache     chase.CacheStats     `json:"cache"`
	Activity  chase.ActivityTotals `json:"activity"`
	Exists    chase.SearchStats    `json:"exists"`
	Portfolio map[string]int64     `json:"portfolio"`
	Snapshot  SnapshotStats        `json:"snapshot"`
}

// errorResponse is every non-200 JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

// Request budget caps: the largest value each budget field may carry. A
// request above a cap gets a 400 before any flight starts, so no client
// can ask for a search that holds an admission slot far longer than the
// defaults do. The guarded-budget and max-states caps are the largest
// budgets the timeout tests send.
const (
	maxGuardedBudget = 100_000
	maxStickyStates  = 2_000_000
	maxExistsStates  = 1_000_000
	maxExistsAtoms   = 10_000
)

// overCap refuses a budget field above its cap, naming both.
func overCap(field string, v, limit int) error {
	if v > limit {
		return fmt.Errorf("%s %d is above the server's cap of %d", field, v, limit)
	}
	return nil
}

// checkCaps refuses the first budget above its cap.
func (r *DecideRequest) checkCaps() error {
	if err := overCap("guarded-budget", r.GuardedBudget, maxGuardedBudget); err != nil {
		return err
	}
	return overCap("sticky-states", r.StickyStates, maxStickyStates)
}

// checkCaps refuses the first budget above its cap.
func (r *ExistsRequest) checkCaps() error {
	if err := overCap("max-states", r.MaxStates, maxExistsStates); err != nil {
		return err
	}
	return overCap("max-atoms", r.MaxAtoms, maxExistsAtoms)
}

// decodeJSON reads a bounded JSON body, rejecting unknown fields so a
// misspelled budget key fails loudly instead of silently running with
// defaults.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("invalid request body: trailing data")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// parseProgram parses and validates a request's program text.
func parseProgram(src string) (*parser.Program, error) {
	if src == "" {
		return nil, fmt.Errorf("empty program")
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if prog.TGDs.Len() == 0 && !prog.TGDs.HasEGDs() {
		return nil, fmt.Errorf("no TGDs in program")
	}
	return prog, nil
}

// decideSalt folds the decide question and its verdict-relevant budgets
// into the flight key, mirroring the cross-run cache's salting rule.
func decideSalt(portfolio bool, guardedBudget, stickyStates int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "decide|%t|%d|%d", portfolio, guardedBudget, stickyStates)
	return h.Sum64()
}

// existsSalt folds the exists question's budgets.
func existsSalt(maxStates, maxAtoms int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "exists|%d|%d", maxStates, maxAtoms)
	return h.Sum64()
}

// decideResponseOf renders a flat report.
func decideResponseOf(rep *core.Report) DecideResponse {
	return DecideResponse{
		Verdict: rep.Conclusion.String(),
		Reasons: append([]string(nil), rep.Reasons...),
	}
}

// portfolioResponseOf renders a portfolio result.
func portfolioResponseOf(res *portfolio.Result) DecideResponse {
	out := DecideResponse{
		Verdict:   res.Conclusion.String(),
		DecidedBy: res.DecidedBy,
		CacheHit:  res.CacheHit,
		Stages:    make([]Stage, len(res.Stages)),
	}
	for i, s := range res.Stages {
		out.Stages[i] = Stage{
			Name:      s.Stage,
			Tier:      s.Tier,
			Decided:   s.Decided,
			Verdict:   s.Conclusion.String(),
			Detail:    s.Detail,
			Steps:     s.Steps,
			Seeds:     s.Seeds,
			Saturated: s.Saturated,
			Depth:     s.Depth,
			Evidence:  s.Evidence,
			ElapsedMS: float64(s.Duration.Microseconds()) / 1e3,
		}
	}
	return out
}

// existsResponseOf renders a search result.
func existsResponseOf(res *chase.ExistsResult) ExistsResponse {
	out := ExistsResponse{
		Verdict: existsVerdict(res),
		States:  res.StatesVisited,
		Stats:   res.Stats,
	}
	if res.Found {
		out.Derivation = make([]string, len(res.Derivation))
		for i, tr := range res.Derivation {
			out.Derivation[i] = tr.String()
		}
	}
	return out
}

func existsVerdict(res *chase.ExistsResult) string {
	switch {
	case res.Found:
		return "found"
	case res.Exhausted:
		return "exhausted"
	case res.Cancelled:
		return "cancelled"
	default:
		return "budget"
	}
}
