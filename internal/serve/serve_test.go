package serve

// The end-to-end serving suite: every conformance corpus program is driven
// through the HTTP API — decode, flight, analyse, encode — and the served
// verdicts are pinned bit-identical to in-process analysis across three
// cache regimes: a cold daemon, a warm daemon (second identical request),
// and a daemon restarted from a cache snapshot. The error surface (405,
// 400, 429, 504) and the stats endpoint are pinned here too; the
// concurrency contracts (singleflight, admission, disconnect) live in
// concurrency_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"airct/internal/chase"
	"airct/internal/guarded"
	"airct/internal/instance"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/sticky"
	"airct/internal/workload"
)

// The conformance harness budgets (see ../../conformance_test.go): fixed so
// every corpus verdict is deterministic.
const (
	confDecideSteps  = 500
	confExistsStates = 5000
	confExistsAtoms  = 80
)

// testServer couples a Server with an httptest front end.
type testServer struct {
	srv *Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &testServer{srv: srv, ts: ts}
}

func (s *testServer) url(path string) string { return s.ts.URL + path }

// postJSON posts body and decodes the response into out, demanding the
// status.
func postJSON(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: bad response JSON: %v (body %s)", url, err, data)
		}
	}
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: bad response JSON: %v", url, err)
		}
	}
}

// corpusFiles loads the shared conformance corpus.
func corpusFiles(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.chase"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance corpus found: %v", err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".chase")] = string(raw)
	}
	return out
}

// reference holds the in-process answers for one corpus program at the
// serving budgets — the bit-identity baseline every served regime must hit.
type reference struct {
	decide    string // plain ∀∀ rendering
	portfolio string // portfolio ∀∀ rendering
	exists    string // ∀∃ rendering; "" when the program has no facts
}

// renderDecide is the identity witness for POST /v1/decide without
// portfolio: the verdict and the full reason trail. Shared/elapsed/cache
// fields are serving metadata, not analysis output, and are excluded.
func renderDecide(verdict string, reasons []string) string {
	return verdict + "|" + strings.Join(reasons, ";")
}

// renderPortfolio is the identity witness for the portfolio route: the
// conclusion and the deciding stage (the same pair the root conformance
// harness pins across cache regimes; per-stage timings vary by nature).
func renderPortfolio(verdict, decidedBy string) string {
	return verdict + "|" + decidedBy
}

// renderExists is the identity witness for POST /v1/exists: verdict, state
// count, the full work-counter struct and the witness derivation.
func renderExists(verdict string, states int, stats chase.SearchStats, derivation []string) string {
	return fmt.Sprintf("%s|%d|%+v|%s", verdict, states, stats, strings.Join(derivation, ";"))
}

// referenceFor computes the in-process baseline with the exact options the
// handlers use at these request budgets (cache off — the root conformance
// suite already pins cache off ≡ cold ≡ warm ≡ snapshot in-process).
func referenceFor(t *testing.T, src string) reference {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var ref reference
	popts := portfolio.Options{
		Guarded: guarded.DecideOptions{MaxSteps: confDecideSteps},
		Sticky:  sticky.DecideOptions{MaxStates: sticky.DefaultMaxStates},
	}
	rep, err := portfolio.Report(context.Background(), prog.TGDs, popts)
	if err != nil {
		t.Fatalf("portfolio.Report: %v", err)
	}
	ref.decide = renderDecide(rep.Conclusion.String(), rep.Reasons)

	pres, err := portfolio.Analyze(context.Background(), prog.TGDs, popts)
	if err != nil {
		t.Fatalf("portfolio.Analyze: %v", err)
	}
	ref.portfolio = renderPortfolio(pres.Conclusion.String(), pres.DecidedBy)

	// The ∀∃ search is TGD-only; the daemon rejects /v1/exists for EGD
	// programs (400), so no reference is rendered for them.
	if prog.Database.Len() > 0 && !prog.TGDs.HasEGDs() {
		res, err := chase.SearchTerminatingDerivation(prog.Database, prog.TGDs, chase.SearchOptions{
			MaxStates: confExistsStates,
			MaxAtoms:  confExistsAtoms,
		})
		if err != nil {
			t.Fatal(err)
		}
		der := make([]string, len(res.Derivation))
		for i, tr := range res.Derivation {
			der[i] = tr.String()
		}
		ref.exists = renderExists(existsVerdictName(res), res.StatesVisited, res.Stats, der)
	}
	return ref
}

func existsVerdictName(res *chase.ExistsResult) string {
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

// driveCorpus runs every corpus program through both endpoints of ts and
// demands each response render bit-identically to its reference. regime
// labels the failure messages (cold/warm/restart).
func driveCorpus(t *testing.T, ts *testServer, corpus map[string]string, refs map[string]reference, regime string) {
	t.Helper()
	for name, src := range corpus {
		ref := refs[name]
		var dec DecideResponse
		postJSON(t, ts.url("/v1/decide"), DecideRequest{Program: src, GuardedBudget: confDecideSteps}, http.StatusOK, &dec)
		if got := renderDecide(dec.Verdict, dec.Reasons); got != ref.decide {
			t.Errorf("%s/%s: served decide drifted:\n  got  %s\n  want %s", regime, name, got, ref.decide)
		}
		// A flat decide replays its stage ledger when warm, but its wire
		// shape carries neither stages nor a cache hit.
		if dec.CacheHit || len(dec.Stages) != 0 {
			t.Errorf("%s/%s: served flat decide reports cache-hit %v with %d stages", regime, name, dec.CacheHit, len(dec.Stages))
		}
		var pf DecideResponse
		postJSON(t, ts.url("/v1/decide"), DecideRequest{Program: src, Portfolio: true, GuardedBudget: confDecideSteps}, http.StatusOK, &pf)
		if got := renderPortfolio(pf.Verdict, pf.DecidedBy); got != ref.portfolio {
			t.Errorf("%s/%s: served portfolio drifted:\n  got  %s\n  want %s", regime, name, got, ref.portfolio)
		}
		if len(pf.Stages) == 0 && !pf.CacheHit {
			t.Errorf("%s/%s: served portfolio carried no stage ledger and no cache hit", regime, name)
		}
		if ref.exists == "" {
			continue
		}
		var ex ExistsResponse
		postJSON(t, ts.url("/v1/exists"), ExistsRequest{Program: src, MaxStates: confExistsStates, MaxAtoms: confExistsAtoms}, http.StatusOK, &ex)
		if got := renderExists(ex.Verdict, ex.States, ex.Stats, ex.Derivation); got != ref.exists {
			t.Errorf("%s/%s: served exists drifted:\n  got  %s\n  want %s", regime, name, got, ref.exists)
		}
	}
}

// TestServeConformanceE2E is the tentpole's acceptance test: the full
// conformance corpus over HTTP, bit-identical to in-process analysis on a
// cold daemon, a warm daemon, and a daemon restarted from the first
// daemon's cache snapshot.
func TestServeConformanceE2E(t *testing.T) {
	corpus := corpusFiles(t)
	refs := make(map[string]reference, len(corpus))
	for name, src := range corpus {
		refs[name] = referenceFor(t, src)
	}

	first := newTestServer(t, Config{})
	driveCorpus(t, first, corpus, refs, "cold")
	driveCorpus(t, first, corpus, refs, "warm")
	if st := first.srv.cache.Stats(); st.Hits == 0 {
		t.Error("warm pass recorded no cache hits on the shared cache")
	}

	// Restart: snapshot the daemon's cache to disk and boot a second daemon
	// from the file, exactly as termcheckd does across a restart.
	path := filepath.Join(t.TempDir(), "serve.cache")
	if err := chase.SaveCacheFile(first.srv.cache, path); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	restarted := newTestServer(t, Config{Cache: OpenCacheFile(path, t.Logf)})
	driveCorpus(t, restarted, corpus, refs, "restart")
	if st := restarted.srv.cache.Stats(); st.Hits == 0 {
		t.Error("restarted daemon served the corpus without touching the restored cache")
	}
}

// TestServeErrorSurface pins the non-200 contract: method, decode,
// validation and timeout errors, each with a JSON error body.
func TestServeErrorSurface(t *testing.T) {
	ts := newTestServer(t, Config{})

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.url(path), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	wide := "W(" + strings.Repeat("X,", instance.MaxArity) + "X)"
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"decide bad json", "/v1/decide", "{", http.StatusBadRequest},
		{"decide unknown field", "/v1/decide", `{"program":"r: P(X) -> Q(X).","budgett":3}`, http.StatusBadRequest},
		{"decide trailing data", "/v1/decide", `{"program":"r: P(X) -> Q(X)."} {}`, http.StatusBadRequest},
		{"decide empty program", "/v1/decide", `{"program":""}`, http.StatusBadRequest},
		{"decide parse error", "/v1/decide", `{"program":"r: P(X -> Q(X)."}`, http.StatusBadRequest},
		{"decide no tgds", "/v1/decide", `{"program":"P(c)."}`, http.StatusBadRequest},
		{"exists no facts", "/v1/exists", `{"program":"r: P(X) -> Q(X)."}`, http.StatusBadRequest},
		{"exists egd program", "/v1/exists", `{"program":"P(a,b). r: P(X,Y) -> P(Y,Z). k: P(X,Y), P(X,Z) -> Y = Z."}`, http.StatusBadRequest},
		{"decide atom above MaxArity", "/v1/decide", `{"program":"` + wide + ` -> ` + wide + `."}`, http.StatusBadRequest},
		{"exists atom above MaxArity", "/v1/exists", `{"program":"S(a). ` + wide + ` -> S(X)."}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := post(tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, status, tc.want, body)
		}
		var e errorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON {error}: %s", tc.name, body)
		}
	}

	for _, tc := range []struct {
		name   string
		method string
		path   string
		want   int
	}{
		{"decide GET", http.MethodGet, "/v1/decide", http.StatusMethodNotAllowed},
		{"exists GET", http.MethodGet, "/v1/exists", http.StatusMethodNotAllowed},
		{"stats POST", http.MethodPost, "/v1/stats", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.url(tc.path), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestServeRejectsWorkersField pins that no request can size a worker
// pool, pick a ∀∃ frontier or set the probe budget: workers, strategy and
// probe-steps are not request fields, so a body that carries one gets the
// 400 of any unknown key, naming the field, on both endpoints.
func TestServeRejectsWorkersField(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, field := range []string{`"workers":2`, `"strategy":"bfs"`, `"probe-steps":16`} {
		body := fmt.Sprintf(`{"program":%q,%s}`, "P(c).\nr: P(X) -> Q(X).\n", field)
		name := field[:strings.Index(field, ":")]
		for _, path := range []string{"/v1/decide", "/v1/exists"} {
			resp, err := http.Post(ts.url(path), "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d, want 400 (body %s)", path, name, resp.StatusCode, data)
				continue
			}
			var e errorResponse
			if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "unknown field "+name) {
				t.Errorf("%s %s: error does not name the unknown field: %s", path, name, data)
			}
		}
	}
}

// TestServeRefusesBudgetsOverCap pins the request caps: a budget one above
// its cap gets a 400 naming the field and the cap, and no flight starts.
// The timeout tests below send budgets at the caps.
func TestServeRefusesBudgetsOverCap(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := "P(c).\nr: P(X) -> Q(X).\n"
	for _, tc := range []struct {
		path, field string
		limit       int
	}{
		{"/v1/decide", "guarded-budget", maxGuardedBudget},
		{"/v1/decide", "sticky-states", maxStickyStates},
		{"/v1/exists", "max-states", maxExistsStates},
		{"/v1/exists", "max-atoms", maxExistsAtoms},
	} {
		status, body := rawPost(t, ts.url(tc.path), fmt.Sprintf(`{"program":%q,%q:%d}`, src, tc.field, tc.limit+1))
		if status != http.StatusBadRequest {
			t.Errorf("%s %s=%d: status = %d, want 400 (body %s)", tc.path, tc.field, tc.limit+1, status, body)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, tc.field) || !strings.Contains(e.Error, fmt.Sprint(tc.limit)) {
			t.Errorf("%s %s: error does not name the field and its cap: %s", tc.path, tc.field, body)
		}
	}
	if got := ts.srv.Stats().Flights.Started; got != 0 {
		t.Errorf("flights started = %d, want 0", got)
	}
}

// TestServeDecideTimeout pins the request-budget mapping: a decide that
// cannot finish inside timeout-ms comes back 504, and the underlying
// flight is counted cancelled.
func TestServeDecideTimeout(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := workload.SwapIntro(14).Source // ~20s uncancelled; checks ctx per step
	status, body := rawPost(t, ts.url("/v1/decide"),
		fmt.Sprintf(`{"program":%q,"guarded-budget":100000,"timeout-ms":50}`, src))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", status, body)
	}
	if got := ts.srv.Stats().Flights.Cancelled; got != 1 {
		t.Errorf("flights cancelled = %d, want 1", got)
	}
}

// TestServeTimeoutForCaps pins how timeout-ms resolves against the
// server's default and cap, including values too large for a Duration.
func TestServeTimeoutForCaps(t *testing.T) {
	capped := New(Config{DefaultTimeout: time.Second, MaxTimeout: time.Minute})
	defer capped.Close()
	uncapped := New(Config{})
	defer uncapped.Close()
	for _, tc := range []struct {
		name string
		srv  *Server
		ms   int64
		want time.Duration
	}{
		{"capped default", capped, 0, time.Second},
		{"capped in range", capped, 250, 250 * time.Millisecond},
		{"capped over cap", capped, 120_000, time.Minute},
		// As a Duration in nanoseconds this wraps to 448µs.
		{"capped wrapping", capped, 18446744073710, time.Minute},
		{"capped max", capped, math.MaxInt64, time.Minute},
		{"uncapped default", uncapped, 0, 0},
		{"uncapped max", uncapped, math.MaxInt64, math.MaxInt64},
	} {
		if got := tc.srv.timeoutFor(tc.ms); got != tc.want {
			t.Errorf("%s: timeoutFor(%d) = %v, want %v", tc.name, tc.ms, got, tc.want)
		}
	}
}

// TestServeDecideIgnoresFacts pins that /v1/decide reads only the rules:
// one rule set sent with facts, with other facts and with none gets the
// same verdict and stage ledger and no exists stage, and the second and
// third requests replay the ledger the first one stored.
func TestServeDecideIgnoresFacts(t *testing.T) {
	ts := newTestServer(t, Config{})
	rules := "S(X) -> R(X,Y).\nR(X,Y) -> S(Y).\n"
	var first DecideResponse
	for i, facts := range []string{"S(a).\n", "S(b).\nR(c,d).\n", ""} {
		var dec DecideResponse
		postJSON(t, ts.url("/v1/decide"), DecideRequest{Program: facts + rules, Portfolio: true}, http.StatusOK, &dec)
		for j := range dec.Stages {
			if dec.Stages[j].Name == "exists" {
				t.Errorf("request %d: exists stage served: %+v", i+1, dec.Stages[j])
			}
			dec.Stages[j].ElapsedMS = 0 // replayed stages report no time
		}
		if i == 0 {
			if dec.CacheHit || len(dec.Stages) == 0 {
				t.Fatalf("first request: cache-hit %v with %d stages, want a live run", dec.CacheHit, len(dec.Stages))
			}
			first = dec
			continue
		}
		if !dec.CacheHit {
			t.Errorf("request %d: cache-hit false, want the first request's ledger replayed", i+1)
		}
		if dec.Verdict != first.Verdict || dec.DecidedBy != first.DecidedBy || !reflect.DeepEqual(dec.Stages, first.Stages) {
			t.Errorf("request %d: %s by %q with stages %+v, want %s by %q with %+v",
				i+1, dec.Verdict, dec.DecidedBy, dec.Stages, first.Verdict, first.DecidedBy, first.Stages)
		}
	}
}

// TestServeExistsTimeout pins the ∀∃ budget mapping: the search absorbs
// cancellation as data — a 200 with verdict "cancelled", no semantic claim.
func TestServeExistsTimeout(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := programText(workload.StageGrid(12))
	var ex ExistsResponse
	postJSON(t, ts.url("/v1/exists"),
		json.RawMessage(fmt.Sprintf(`{"program":%q,"max-states":1000000,"max-atoms":100,"timeout-ms":100}`, src)),
		http.StatusOK, &ex)
	if ex.Verdict != "cancelled" {
		t.Fatalf("verdict = %q, want cancelled", ex.Verdict)
	}
}

// TestServeAnswersPastStickySeedCap: one 12-ary shift has 23,430,840
// sticky seeds (e₀, Π₀). Both decide modes answer 200 with the sticky
// stage unexplored, and the daemon still answers /healthz afterwards.
func TestServeAnswersPastStickySeedCap(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := "R(X1,X2,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12) -> R(X2,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12,Y).\n"
	capped := fmt.Sprintf("not explored: more than %d components", sticky.MaxSeeds)
	for _, portfolio := range []bool{false, true} {
		var dec DecideResponse
		postJSON(t, ts.url("/v1/decide"), DecideRequest{Program: src, Portfolio: portfolio}, http.StatusOK, &dec)
		lines := dec.Reasons
		for _, st := range dec.Stages {
			if st.Name == "sticky" && !st.Decided {
				lines = append(lines, st.Detail)
			}
		}
		found := false
		for _, l := range lines {
			found = found || strings.Contains(l, capped)
		}
		if !found {
			t.Errorf("portfolio=%v: no unexplored sticky line in %+v", portfolio, dec)
		}
	}
	var health map[string]string
	getJSON(t, ts.url("/healthz"), http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
}

// TestServeStats exercises /v1/stats and /healthz: request tallies, flight
// counters, the shared cache's counters and the portfolio decided-by tally
// all surface as JSON.
func TestServeStats(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := "P(c).\nr: P(X) -> Q(X).\n"
	var dec DecideResponse
	postJSON(t, ts.url("/v1/decide"), DecideRequest{Program: src, Portfolio: true}, http.StatusOK, &dec)
	var ex ExistsResponse
	postJSON(t, ts.url("/v1/exists"), ExistsRequest{Program: src}, http.StatusOK, &ex)

	var health map[string]string
	getJSON(t, ts.url("/healthz"), http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	var st StatsResponse
	getJSON(t, ts.url("/v1/stats"), http.StatusOK, &st)
	if st.Requests.Decide != 1 || st.Requests.Exists != 1 || st.Requests.Health != 1 {
		t.Errorf("request tallies = %+v", st.Requests)
	}
	if st.Flights.Started != 2 {
		t.Errorf("flights started = %d, want 2", st.Flights.Started)
	}
	if st.Exists.StatesExpanded == 0 {
		t.Errorf("exists aggregate empty: %+v", st.Exists)
	}
	total := int64(0)
	for _, n := range st.Portfolio {
		total += n
	}
	if total != 1 {
		t.Errorf("portfolio tally = %v, want one decision", st.Portfolio)
	}
	if st.Cache.Misses == 0 {
		t.Errorf("cache counters empty: %+v", st.Cache)
	}
	if st.UptimeMS < 0 {
		t.Errorf("uptime = %d", st.UptimeMS)
	}
}

// TestServeWarmIsSharedCache pins the tentpole's reason to exist: the SAME
// cache serves every request, so a second identical exists request is a
// whole-run cache replay — same rendering, cache hits recorded.
func TestServeWarmIsSharedCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := programText(workload.StageGrid(6))
	req := ExistsRequest{Program: src, MaxStates: confExistsStates, MaxAtoms: confExistsAtoms}
	var cold, warm ExistsResponse
	postJSON(t, ts.url("/v1/exists"), req, http.StatusOK, &cold)
	hitsBefore := ts.srv.cache.Stats().Hits
	postJSON(t, ts.url("/v1/exists"), req, http.StatusOK, &warm)
	if ts.srv.cache.Stats().Hits == hitsBefore {
		t.Error("warm request recorded no cache hit")
	}
	cr := renderExists(cold.Verdict, cold.States, cold.Stats, cold.Derivation)
	wr := renderExists(warm.Verdict, warm.States, warm.Stats, warm.Derivation)
	if cr != wr {
		t.Errorf("warm rendering drifted from cold:\n  cold %s\n  warm %s", cr, wr)
	}
}

// TestServeExistsReplayCountsStatesOnce pins the /v1/stats exists
// aggregate to work actually done: the second of two identical requests
// is a cache replay that searches nothing, so the aggregate holds the
// first search's counters once, not twice.
func TestServeExistsReplayCountsStatesOnce(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := ExistsRequest{Program: programText(workload.StageGrid(5)), MaxStates: confExistsStates, MaxAtoms: confExistsAtoms}
	var cold, warm ExistsResponse
	postJSON(t, ts.url("/v1/exists"), req, http.StatusOK, &cold)
	postJSON(t, ts.url("/v1/exists"), req, http.StatusOK, &warm)
	if cold.Stats.StatesExpanded == 0 || warm.Stats != cold.Stats {
		t.Fatalf("replay should report the recorded search: cold %+v, warm %+v", cold.Stats, warm.Stats)
	}
	var st StatsResponse
	getJSON(t, ts.url("/v1/stats"), http.StatusOK, &st)
	if st.Exists.StatesExpanded != cold.Stats.StatesExpanded || st.Exists.MemoHits != cold.Stats.MemoHits {
		t.Errorf("exists aggregate = %+v, want the one search's %+v", st.Exists, cold.Stats)
	}
}

// TestFlightPanicIsContained pins the safety net around flight work: a
// panicking analysis fails its request with 500, is logged and counted in
// /v1/stats, and releases its admission slot and its flight-table entry,
// so the daemon keeps serving.
func TestFlightPanicIsContained(t *testing.T) {
	var logged strings.Builder
	srv := New(Config{MaxInflight: 1, Logf: func(format string, args ...any) { fmt.Fprintf(&logged, format, args...) }})
	defer srv.Close()
	key := flightKey{salt: 7}
	_, _, err := srv.doFlight(context.Background(), key, 0, func(context.Context) (any, error) {
		panic("decider bug")
	})
	if !errors.Is(err, errFlightPanic) || !strings.Contains(err.Error(), "decider bug") {
		t.Fatalf("doFlight error = %v, want the contained panic", err)
	}
	rec := httptest.NewRecorder()
	srv.finish(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", nil), nil, err)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicked flight answered %d, want 500", rec.Code)
	}
	if got := srv.Stats().Flights.Panics; got != 1 {
		t.Errorf("flights.panics = %d, want 1", got)
	}
	if !strings.Contains(logged.String(), "decider bug") {
		t.Errorf("panic not logged: %q", logged.String())
	}
	// The slot is released once the flight goroutine exits; then the one
	// slot admits a new leader on the same key.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.gate) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	val, shared, err := srv.doFlight(context.Background(), key, 0, func(context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil || val != "ok" || shared {
		t.Fatalf("flight after a panic = (%v, %v, %v), want a fresh leader's result", val, shared, err)
	}
}

// rawPost posts a raw JSON string and returns status and body.
func rawPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// programText renders a parsed program back to .chase source: facts then
// TGDs, exactly the grammar parser.Parse accepts.
func programText(prog *parser.Program) string {
	var b strings.Builder
	for _, a := range prog.Database.Atoms() {
		b.WriteString(a.String())
		b.WriteString(".\n")
	}
	for _, tgd := range prog.TGDs.TGDs {
		b.WriteString(tgd.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// TestSnapshotterCadence pins the background saver: with a short cadence
// the snapshot file appears while the owner is still running and restores
// cleanly, and Close writes the final state exactly once. The Close half
// runs on a snapshotter whose ticker cannot fire during the test, so no
// background save can land between the count and Close.
func TestSnapshotterCadence(t *testing.T) {
	cache := chase.NewCache()
	prog := workload.StageGrid(4)
	if _, err := chase.SearchTerminatingDerivation(prog.Database, prog.TGDs, chase.SearchOptions{
		MaxStates: 1000, MaxAtoms: 50, Cache: cache,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.cache")
	snap := NewSnapshotter(cache, path, 10*time.Millisecond, t.Logf)

	// The ticker must produce a snapshot without Close's help.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap.Stats().Saves > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no background snapshot within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing after background save: %v", err)
	}
	restored, rep, err := chase.LoadCacheFile(path)
	if err != nil || rep.Skipped > 0 || rep.Truncated {
		t.Fatalf("background snapshot did not restore cleanly: %v %+v", err, rep)
	}
	if restored.Stats().Entries == 0 {
		t.Error("background snapshot restored no entries")
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := snap.Stats(); st.Errors != 0 || st.LastUnixMS == 0 || st.Path != path || st.EveryMS != 10 {
		t.Errorf("snapshot stats = %+v", st)
	}

	finalPath := filepath.Join(t.TempDir(), "final.cache")
	idle := NewSnapshotter(cache, finalPath, time.Hour, t.Logf)
	savesBeforeClose := idle.Stats().Saves
	if err := idle.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := idle.Stats()
	if st.Saves != savesBeforeClose+1 {
		t.Errorf("close saves = %d, want %d", st.Saves, savesBeforeClose+1)
	}
	if err := idle.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if idle.Stats().Saves != st.Saves {
		t.Error("second Close saved again; want exactly once")
	}
	if st.Errors != 0 || st.LastUnixMS == 0 || st.Path != finalPath {
		t.Errorf("snapshot stats = %+v", st)
	}
	if restored, rep, err := chase.LoadCacheFile(finalPath); err != nil || rep.Skipped > 0 || rep.Truncated ||
		restored.Stats().Entries != cache.Stats().Entries {
		t.Errorf("final snapshot did not restore the cache: %v %+v", err, rep)
	}
}

// TestOpenCacheFileNamesRetiredKinds pins the shared loader's report of a
// partial load: cache-v3.snap holds 26 frames of kinds this build no longer
// reads, none of them corrupt, and the line says so instead of calling
// every skipped frame corrupt.
func TestOpenCacheFileNamesRetiredKinds(t *testing.T) {
	path := "../chase/testdata/cache-v3.snap"
	var logged []string
	c := OpenCacheFile(path, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	want := "cache file " + path + ": restored 10 entries, skipped 26 (corrupt or of a retired kind), truncated=false"
	if len(logged) != 1 || logged[0] != want {
		t.Errorf("log = %q, want %q", logged, want)
	}
	if got := c.Stats().Entries; got != 10 {
		t.Errorf("restored %d entries, want 10", got)
	}
}

// TestOpenCacheFile pins the shared loader's three paths: missing file →
// cold, good file → warm, corrupt file → reported and ignored.
func TestOpenCacheFile(t *testing.T) {
	dir := t.TempDir()
	if c := OpenCacheFile(filepath.Join(dir, "missing.cache"), t.Logf); c.Stats().Entries != 0 {
		t.Error("missing file did not start cold")
	}
	if c := OpenCacheFile("", t.Logf); c == nil {
		t.Error("empty path must still return a usable cache")
	}

	cache := chase.NewCache()
	prog := workload.StageGrid(3)
	if _, err := chase.SearchTerminatingDerivation(prog.Database, prog.TGDs, chase.SearchOptions{
		MaxStates: 1000, MaxAtoms: 50, Cache: cache,
	}); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.cache")
	if err := chase.SaveCacheFile(cache, good); err != nil {
		t.Fatal(err)
	}
	if c := OpenCacheFile(good, t.Logf); c.Stats().Entries == 0 {
		t.Error("good snapshot did not restore entries")
	}

	bad := filepath.Join(dir, "bad.cache")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	c := OpenCacheFile(bad, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if c.Stats().Entries != 0 {
		t.Error("corrupt snapshot must start cold")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "ignoring cache file") {
		t.Errorf("corrupt snapshot log = %v", logged)
	}
}
