// The shared conformance corpus: golden .chase programs under
// testdata/conformance/ carry their expected verdicts in an `# expect:`
// header line, and every entry runs table-driven across the full decision
// matrix — the chase engine, the ∀∃ exists-search, the flat report and the
// portfolio cascade × {cache off, cache cold, cache warm,
// snapshot→restore→warm}, the served daemon, and (where the set is
// guarded) the guarded ∀∀ decision without a cache. Beyond matching the
// golden verdicts, the cache dimension is pinned bit-identical: same
// reason, steps, stats and final-instance atom sequence for the engine,
// the same rendered flat report, and same verdict, stats and derivation
// rendering for the sequential exists-search — cold, warm, and warmed
// from a snapshot of the cold cache (the persistent tier's restore path
// must be indistinguishable from the in-process warm cache).
//
// Directive grammar (one line, space-separated key=value):
//
//	# expect: decide=terminates|diverges [decide-method=...]
//	#         engine=fixpoint|step-budget|egd-failure
//	#         exists=found|exhausted|budget
//	#         truth=terminates|diverges
//
// Keys are optional; a missing key skips that column (e.g. non-guarded
// sets omit decide=, and EGD programs omit exists= — the ∀∃ search is
// TGD-only). decide= pins the guarded decision's exact answer. truth= is
// the all-instances answer the program's header argues for: every ∀∀
// column — the flat report, the cascade off/cold/warm/snap, the served flat
// and portfolio decides, and guarded Decide where the set is guarded — may
// answer the truth or unknown (for Decide, budget-exhausted), never the
// opposite. Budgets are fixed by the harness below so verdicts
// are deterministic: engine MaxSteps 500, exists MaxStates 5000 /
// MaxAtoms 80, Decide MaxSteps 500.
package airct_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/guarded"
	"airct/internal/instance"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/serve"
	"airct/internal/tgds"
)

const (
	confEngineSteps  = 500
	confExistsStates = 5000
	confExistsAtoms  = 80
	confDecideSteps  = 500
)

// parseExpect extracts the key=value pairs of the `# expect:` header.
func parseExpect(t *testing.T, src string) map[string]string {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "# expect:") {
			continue
		}
		out := make(map[string]string)
		for _, kv := range strings.Fields(strings.TrimPrefix(line, "# expect:")) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				t.Fatalf("malformed expect directive %q", kv)
			}
			if k == "truth" && v != "terminates" && v != "diverges" {
				t.Fatalf("truth=%s: the truth is terminates or diverges", v)
			}
			out[k] = v
		}
		return out
	}
	t.Fatal("no `# expect:` directive in corpus file")
	return nil
}

func existsVerdict(res *chase.ExistsResult) string {
	switch {
	case res.Found:
		return "found"
	case res.Exhausted:
		return "exhausted"
	default:
		return "budget"
	}
}

func decideVerdict(v *guarded.Verdict) string {
	if v.Terminates {
		return "terminates"
	}
	return "diverges"
}

// checkTruth holds one ∀∀ column's answer to the program's truth= mark
// ("" when there is none): unknown is always allowed, the opposite never.
func checkTruth(t *testing.T, column, got, truth string) {
	t.Helper()
	if truth != "" && got != "unknown" && got != truth {
		t.Errorf("%s: answered %s, but the program %s", column, got, truth)
	}
}

// decideTruthVerdict is Decide's answer as a truth= check reads it: a
// budget-exhausted verdict claims nothing.
func decideTruthVerdict(v *guarded.Verdict) string {
	if v.Method == "budget-exhausted" {
		return "unknown"
	}
	return decideVerdict(v)
}

// snapshotRoundTrip models a process restart: snapshot the cache and
// rebuild a fresh one from the bytes, demanding a clean load.
func snapshotRoundTrip(t *testing.T, cache *chase.Cache) *chase.Cache {
	t.Helper()
	var buf bytes.Buffer
	if err := cache.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	restored, rep, err := chase.LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("snapshot load: %v", err)
	}
	if rep.Skipped > 0 || rep.Truncated {
		t.Fatalf("snapshot load degraded: %+v", rep)
	}
	return restored
}

// existsRendering is the byte-identity witness for the exists column's
// cache dimension: verdict, work counters and the witness derivation.
func existsRendering(res *chase.ExistsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict=%s states=%d stats=%+v\n", existsVerdict(res), res.StatesVisited, res.Stats)
	for i, tr := range res.Derivation {
		fmt.Fprintf(&b, "%d: %s\n", i, tr.String())
	}
	return b.String()
}

// finalAtoms renders the run's final instance in insertion order — the
// byte-identity witness for the engine's cache dimension.
func finalAtoms(run *chase.Run) string {
	var b strings.Builder
	for _, a := range run.Final.Atoms() {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestConformanceCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/conformance/*.chase")
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance corpus found: %v", err)
	}
	// The served column's daemon: ONE server (and hence one shared cache)
	// across the whole corpus, as termcheckd would run it.
	daemon := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer daemon.Close()
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".chase"), func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			expect := parseExpect(t, string(raw))
			prog, err := parser.Parse(string(raw))
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := expect["engine"]; ok {
				runEngineColumn(t, prog, want)
			}
			if want, ok := expect["exists"]; ok {
				runExistsColumn(t, prog, want)
			}
			if want, ok := expect["decide"]; ok || (expect["truth"] != "" && prog.TGDs.IsGuarded()) {
				runDecideColumn(t, prog, want, expect["decide-method"], expect["truth"])
			}
			runFlatColumn(t, prog, expect["truth"])
			runPortfolioColumn(t, prog, expect["truth"])
			runServedColumn(t, daemon.URL, string(raw), prog, expect)
		})
	}
}

// runServedColumn drives the program through the HTTP serving front end at
// the harness budgets and holds the served verdicts to the same golden
// directives as the in-process columns: the ∀∀ decision must agree with
// the in-process flat report (and with decide= where the set is guarded),
// the flat report and both served decides with truth=, and exists= must
// come back verbatim over the wire.
func runServedColumn(t *testing.T, baseURL, src string, prog *parser.Program, expect map[string]string) {
	post := func(path string, req, out any) {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("served%s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("served%s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("served%s: %v", path, err)
		}
	}

	rep, err := portfolio.Report(context.Background(), prog.TGDs, portfolio.Options{
		Guarded: guarded.DecideOptions{MaxSteps: confDecideSteps},
	})
	if err != nil {
		t.Fatalf("served: portfolio.Report: %v", err)
	}
	checkTruth(t, "flat", rep.Conclusion.String(), expect["truth"])
	var dec serve.DecideResponse
	post("/v1/decide", serve.DecideRequest{Program: src, GuardedBudget: confDecideSteps}, &dec)
	checkTruth(t, "served/decide", dec.Verdict, expect["truth"])
	if dec.Verdict != rep.Conclusion.String() {
		t.Errorf("served/decide: verdict = %s, want %s (flat report)", dec.Verdict, rep.Conclusion)
	}
	if want, ok := expect["decide"]; ok && dec.Verdict != want {
		t.Errorf("served/decide: verdict = %s, want %s (golden)", dec.Verdict, want)
	}
	var pf serve.DecideResponse
	post("/v1/decide", serve.DecideRequest{Program: src, Portfolio: true, GuardedBudget: confDecideSteps}, &pf)
	checkTruth(t, "served/portfolio", pf.Verdict, expect["truth"])
	if pf.Verdict != rep.Conclusion.String() {
		t.Errorf("served/portfolio: verdict = %s, want %s (flat report)", pf.Verdict, rep.Conclusion)
	}
	if want, ok := expect["exists"]; ok {
		var ex serve.ExistsResponse
		post("/v1/exists", serve.ExistsRequest{Program: src, MaxStates: confExistsStates, MaxAtoms: confExistsAtoms}, &ex)
		if ex.Verdict != want {
			t.Errorf("served/exists: verdict = %s, want %s (golden)", ex.Verdict, want)
		}
	}
}

// runEngineColumn chases the database with the restricted FIFO engine,
// cache off / cold / warm, expecting the golden stop reason and cache-state
// byte-identity.
func runEngineColumn(t *testing.T, prog *parser.Program, want string) {
	opts := chase.Options{Variant: chase.Restricted, Strategy: chase.FIFO, MaxSteps: confEngineSteps}
	off := chase.RunChase(prog.Database, prog.TGDs, opts)
	if off.Reason.String() != want {
		t.Errorf("engine: reason = %v, want %s", off.Reason, want)
	}
	cache := chase.NewCache()
	opts.Cache = cache
	cold := chase.RunChase(prog.Database, prog.TGDs, opts)
	warm := chase.RunChase(prog.Database, prog.TGDs, opts)
	opts.Cache = snapshotRoundTrip(t, cache)
	snap := chase.RunChase(prog.Database, prog.TGDs, opts)
	for label, got := range map[string]*chase.Run{"cold": cold, "warm": warm, "snap": snap} {
		if got.Reason != off.Reason || got.StepsTaken != off.StepsTaken || got.Stats != off.Stats {
			t.Errorf("engine/%s: run drifted from cache-off: reason %v/%v steps %d/%d stats %+v/%+v",
				label, got.Reason, off.Reason, got.StepsTaken, off.StepsTaken, got.Stats, off.Stats)
		}
		if finalAtoms(got) != finalAtoms(off) {
			t.Errorf("engine/%s: final instance drifted from cache-off", label)
		}
	}
}

// mustSearch is chase.SearchTerminatingDerivation on a TGD-only input.
func mustSearch(tb testing.TB, db *instance.Database, set *tgds.Set, opts chase.SearchOptions) *chase.ExistsResult {
	tb.Helper()
	res, err := chase.SearchTerminatingDerivation(db, set, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// runExistsColumn runs the ∀∃ search, expecting the golden verdict, then
// adds the cache dimension: cold, in-process warm and
// snapshot→restore→warm runs must render bit-identically — verdict, stats
// and witness derivation.
func runExistsColumn(t *testing.T, prog *parser.Program, want string) {
	opts := chase.SearchOptions{MaxStates: confExistsStates, MaxAtoms: confExistsAtoms}
	off := mustSearch(t, prog.Database, prog.TGDs, opts)
	if got := existsVerdict(off); got != want {
		t.Errorf("exists: verdict = %s, want %s", got, want)
	}
	cache := chase.NewCache()
	opts.Cache = cache
	cold := mustSearch(t, prog.Database, prog.TGDs, opts)
	warm := mustSearch(t, prog.Database, prog.TGDs, opts)
	if cache.Stats().Hits == 0 {
		t.Error("exists/warm: warm search recorded no cache hit")
	}
	restored := snapshotRoundTrip(t, cache)
	opts.Cache = restored
	snap := mustSearch(t, prog.Database, prog.TGDs, opts)
	if restored.Stats().Hits == 0 {
		t.Error("exists/snap: snapshot-warmed search recorded no cache hit")
	}
	base := existsRendering(off)
	for label, got := range map[string]*chase.ExistsResult{"cold": cold, "warm": warm, "snap": snap} {
		if r := existsRendering(got); r != base {
			t.Errorf("exists/%s: rendering drifted from cache-off:\n%s\nvs\n%s", label, r, base)
		}
	}
}

// runPortfolioColumn pins the cascade's conclusion bit-identical to the
// flat report's on every corpus file, cache off / cold / warm, at the same
// budgets, and holds every cell to truth=. The column runs unconditionally
// — the identity contract covers every class, including sets neither
// guarded nor sticky (both sides must then agree on Unknown).
func runPortfolioColumn(t *testing.T, prog *parser.Program, truth string) {
	if prog.TGDs.Len() == 0 && !prog.TGDs.HasEGDs() {
		return
	}
	opts := portfolio.Options{Guarded: guarded.DecideOptions{MaxSteps: confDecideSteps}}
	rep, err := portfolio.Report(context.Background(), prog.TGDs, opts)
	if err != nil {
		t.Fatalf("portfolio: Report: %v", err)
	}
	off, err := portfolio.Analyze(context.Background(), prog.TGDs, opts)
	if err != nil {
		t.Fatalf("portfolio/off: %v", err)
	}
	if off.Conclusion != rep.Conclusion {
		t.Errorf("portfolio/off: conclusion = %v, want %v (flat report)", off.Conclusion, rep.Conclusion)
	}
	checkTruth(t, "portfolio/off", off.Conclusion.String(), truth)
	opts.Cache = chase.NewCache()
	cold, err := portfolio.Analyze(context.Background(), prog.TGDs, opts)
	if err != nil {
		t.Fatalf("portfolio/cold: %v", err)
	}
	if cold.CacheHit {
		t.Error("portfolio/cold: unexpected whole-run cache hit")
	}
	warm, err := portfolio.Analyze(context.Background(), prog.TGDs, opts)
	if err != nil {
		t.Fatalf("portfolio/warm: %v", err)
	}
	if !warm.CacheHit {
		t.Error("portfolio/warm: whole-run cache missed")
	}
	opts.Cache = snapshotRoundTrip(t, opts.Cache)
	snap, err := portfolio.Analyze(context.Background(), prog.TGDs, opts)
	if err != nil {
		t.Fatalf("portfolio/snap: %v", err)
	}
	if !snap.CacheHit {
		t.Error("portfolio/snap: snapshot-warmed run missed the stage ledger")
	}
	for label, got := range map[string]*portfolio.Result{"cold": cold, "warm": warm, "snap": snap} {
		if got.Conclusion != rep.Conclusion {
			t.Errorf("portfolio/%s: conclusion = %v, want %v (flat report)", label, got.Conclusion, rep.Conclusion)
		}
		checkTruth(t, "portfolio/"+label, got.Conclusion.String(), truth)
		if got.DecidedBy != off.DecidedBy {
			t.Errorf("portfolio/%s: decided-by = %q, want %q (cache off)", label, got.DecidedBy, off.DecidedBy)
		}
	}
}

// runDecideColumn runs the guarded ∀∀ decision without a cache, expecting
// the golden verdict (and method, when pinned; want is "" without
// decide=), held to truth=. Its cache cells are the flat report's: the
// guarded decision memoises nothing itself.
func runDecideColumn(t *testing.T, prog *parser.Program, want, wantMethod, truth string) {
	if !prog.TGDs.IsGuarded() {
		t.Fatalf("decide= directive on a non-guarded set")
	}
	base, err := guarded.Decide(prog.TGDs, guarded.DecideOptions{MaxSteps: confDecideSteps})
	if err != nil {
		t.Fatal(err)
	}
	if got := decideVerdict(base); want != "" && got != want {
		t.Errorf("decide: verdict = %s, want %s", got, want)
	}
	checkTruth(t, "decide/off", decideTruthVerdict(base), truth)
	if wantMethod != "" && base.Method != wantMethod {
		t.Errorf("decide: method = %s, want %s", base.Method, wantMethod)
	}
}

// runFlatColumn runs the flat report cache off / cold / warm /
// snapshot-restored at the harness budgets, expecting the rendered report
// byte-identical across every cell, each held to truth=: the cold cell
// costs one cache miss, and each warm cell exactly one hit and no miss.
func runFlatColumn(t *testing.T, prog *parser.Program, truth string) {
	if prog.TGDs.Len() == 0 && !prog.TGDs.HasEGDs() {
		return
	}
	opts := portfolio.Options{Guarded: guarded.DecideOptions{MaxSteps: confDecideSteps}}
	base, err := portfolio.Report(context.Background(), prog.TGDs, opts)
	if err != nil {
		t.Fatalf("flat/off: %v", err)
	}
	checkTruth(t, "flat/off", base.Conclusion.String(), truth)
	opts.Cache = chase.NewCache()
	for _, label := range []string{"cold", "warm", "snap"} {
		if label == "snap" {
			// The snapshot cell restarts the process: the warm cache's
			// snapshot rebuilt from bytes must serve identically.
			opts.Cache = snapshotRoundTrip(t, opts.Cache)
		}
		before := opts.Cache.Stats()
		rep, err := portfolio.Report(context.Background(), prog.TGDs, opts)
		if err != nil {
			t.Fatalf("flat/%s: %v", label, err)
		}
		if got, want := rep.Summary(), base.Summary(); got != want {
			t.Errorf("flat/%s: report drifted:\n%s\nvs\n%s", label, got, want)
		}
		checkTruth(t, "flat/"+label, rep.Conclusion.String(), truth)
		after := opts.Cache.Stats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if want := label != "cold"; (hits == 1 && misses == 0) != want || (hits == 0 && misses == 1) == want {
			t.Errorf("flat/%s: %d cache hits, %d misses", label, hits, misses)
		}
	}
}
