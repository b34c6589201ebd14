package portfolio

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// testDecideSteps keeps the corpus sweeps fast; both sides of every
// cascade-versus-Report identity assertion run at the same budgets.
const testDecideSteps = 500

func portOpts() Options {
	return Options{Guarded: guarded.DecideOptions{MaxSteps: testDecideSteps}}
}

func mustSet(t *testing.T, src string) *tgds.Set {
	t.Helper()
	set, err := parser.ParseTGDs(src)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestConclusionIdentityOnWorkloadCorpus is the portfolio's core contract:
// on every corpus family, the cascade's conclusion equals the exhaustive
// Report's, cache off, cold and warm.
func TestConclusionIdentityOnWorkloadCorpus(t *testing.T) {
	for _, l := range workload.Corpus() {
		t.Run(l.Name, func(t *testing.T) {
			rep, err := Report(context.Background(), l.Set, portOpts())
			if err != nil {
				t.Fatal(err)
			}
			opts := portOpts()
			off, err := Analyze(context.Background(), l.Set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if off.Conclusion != rep.Conclusion {
				t.Fatalf("conclusion = %v, want %v (Report); decided by %q\nstages: %+v",
					off.Conclusion, rep.Conclusion, off.DecidedBy, off.Stages)
			}
			if off.Conclusion != core.Unknown && off.DecidedBy == "" {
				t.Error("decisive result without a deciding stage")
			}
			opts.Cache = chase.NewCache()
			cold, err := Analyze(context.Background(), l.Set, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Analyze(context.Background(), l.Set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.CacheHit || cold.CacheHit {
				t.Errorf("cache hits: cold %v, warm %v", cold.CacheHit, warm.CacheHit)
			}
			for label, got := range map[string]*Result{"cold": cold, "warm": warm} {
				if got.Conclusion != rep.Conclusion || got.DecidedBy != off.DecidedBy {
					t.Errorf("%s drifted: %v/%q vs %v/%q",
						label, got.Conclusion, got.DecidedBy, rep.Conclusion, off.DecidedBy)
				}
			}
		})
	}
}

// TestVerdictInvariantAcrossRacerPoolShapes is the satellite quick-check:
// conclusion and deciding stage never depend on cache state, cold or warm.
func TestVerdictInvariantAcrossRacerPoolShapes(t *testing.T) {
	// Families chosen to exercise every Tier 2 combination: sticky+guarded
	// terminating and diverging, guarded-only diverging, sticky-only
	// terminating, and a baseline-decided set.
	cases := []workload.Labeled{
		workload.LinearCycle(3),
		workload.StickyRelay(2),
		workload.GuardedLadder(2),
		workload.StickyJoin(2),
		workload.SwapIntro(2),
		workload.ExistentialChain(3),
	}
	for _, l := range cases {
		t.Run(l.Name, func(t *testing.T) {
			base, err := Analyze(context.Background(), l.Set, portOpts())
			if err != nil {
				t.Fatal(err)
			}
			for _, withCache := range []bool{false, true} {
				opts := portOpts()
				if withCache {
					opts.Cache = chase.NewCache()
				}
				for pass := 0; pass < 2; pass++ {
					got, err := Analyze(context.Background(), l.Set, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Conclusion != base.Conclusion || got.DecidedBy != base.DecidedBy {
						t.Errorf("cache=%v pass=%d: %v/%q, want %v/%q",
							withCache, pass, got.Conclusion, got.DecidedBy,
							base.Conclusion, base.DecidedBy)
					}
					if !withCache {
						break
					}
				}
			}
		})
	}
}

// TestStageAttribution pins which tier decides the canonical families — the
// cascade's reason to exist.
func TestStageAttribution(t *testing.T) {
	cases := []struct {
		name      string
		set       *tgds.Set
		decidedBy string
		verdict   core.Conclusion
	}{
		{"datalog-full", workload.DatalogChain(3).Set, "full", core.Terminates},
		{"existential-wa", workload.ExistentialChain(3).Set, "weak-acyclicity", core.Terminates},
		{"swap-intro-prune", workload.SwapIntro(2).Set, "jointree-prune", core.Terminates},
		{"sticky-relay-race", workload.StickyRelay(2).Set, "sticky", core.Diverges},
		// The guarded ladder diverges and is guarded non-sticky: the Tier 1
		// probe's rejecting fast path finds the pump certificate on a
		// k-prefix and decides before the Tier 2 race even starts.
		{"guarded-ladder-reject", workload.GuardedLadder(2).Set, "probe", core.Diverges},
		// MFA-but-not-JA separator: Mov(Y) reaches R.1 (via the swap copy)
		// and R.2 (via the direct copy), so the diagonal rule R(X,X) → S(X)
		// positionally forwards the null to S and back to A — JA sees a
		// cycle. Concretely no single null ever sits in both R positions at
		// once (R(n,c) and R(c,n) are never diagonal), so the critical-
		// instance so-chase saturates and MFA decides before any racer.
		{"mfa-separator", mustSet(t, `
			A(X) -> T(X,Y).
			T(X,Y) -> R(Y,X).
			T(X,Y) -> R(X,Y).
			R(X,X) -> S(X).
			S(X) -> A(X).`), "mfa", core.Terminates},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Analyze(context.Background(), tc.set, portOpts())
			if err != nil {
				t.Fatal(err)
			}
			if res.Conclusion != tc.verdict || res.DecidedBy != tc.decidedBy {
				t.Errorf("got %v decided by %q, want %v by %q\nstages: %+v",
					res.Conclusion, res.DecidedBy, tc.verdict, tc.decidedBy, res.Stages)
			}
		})
	}
}

// TestProbeTierAttribution pins Tier 1's rejecting fast path on example
// 5.6's guarded non-sticky diverging shape: a pump certificate surfaces on
// a seed's k-prefix and the probe decides Diverges — carrying the
// certificate — before Tier 2 starts. The conclusion must still equal
// Report's, where the guarded racer reaches the identical verdict.
func TestProbeTierAttribution(t *testing.T) {
	// Guarded, not sticky (marked X recurs in body positions), not WA/JA,
	// not prunable — and genuinely diverging through the P self-feed.
	set := mustSet(t, `
		S(X,Y) -> T(X).
		R(X,Y), T(Y) -> P(X,Y).
		P(X,Y) -> P(Y,Z).
	`)
	if set.IsSticky() || !set.IsGuarded() {
		t.Fatal("example 5.6 class flags shifted")
	}
	rep, err := Report(context.Background(), set, portOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conclusion != core.Diverges {
		t.Fatalf("Report on example 5.6 = %v, want diverges", rep.Conclusion)
	}
	res, err := Analyze(context.Background(), set, portOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.DecidedBy != "probe" || res.Conclusion != core.Diverges {
		t.Errorf("example 5.6: %v by %q, want diverges by probe\nstages: %+v",
			res.Conclusion, res.DecidedBy, res.Stages)
	}
	for _, s := range res.Stages {
		if s.Stage == "probe" && s.Decided && s.Evidence == "" {
			t.Error("rejecting probe carries no divergence certificate")
		}
		if s.Tier == 2 {
			t.Errorf("Tier 2 stage %q recorded after a decisive probe: %+v", s.Stage, s)
		}
	}
}

func TestEmptySetRejected(t *testing.T) {
	if _, err := Analyze(context.Background(), &tgds.Set{}, Options{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Report(context.Background(), &tgds.Set{}, Options{}); err == nil {
		t.Fatal("empty set accepted by Report")
	}
}

// TestReportExhaustiveSchedule pins the flat report's own branches, which
// the golden programs never reach: an EGD set outside every sufficient
// condition, a decider that contradicts an earlier verdict, and a
// cancelled run.
func TestReportExhaustiveSchedule(t *testing.T) {
	egd, err := parser.Parse(`
		S(X) -> R(X,Y).
		R(X,Y) -> S(Y).
		key: R(X,Y), R(X,Z) -> Y = Z.
	`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Report(context.Background(), egd.TGDs, portOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"EGDs present: joint acyclicity, the never-firing prune and MFA are TGD-only baselines and were skipped",
		"the guarded and sticky decision procedures are TGD-only and do not run on sets with EGDs",
	}
	if rep.Conclusion != core.Unknown || strings.Join(rep.Reasons, "\n") != strings.Join(want, "\n") {
		t.Errorf("EGD set outside every condition: %v %q, want unknown %q", rep.Conclusion, rep.Reasons, want)
	}

	// Every decider runs whatever the others concluded, so a disagreement
	// is reported next to the verdict it contradicts, never masking it.
	// conclude clears the later stage's Decided; the fold reads its own
	// Conclusion, so a replayed ledger folds the same way.
	r := &runner{res: &Result{}}
	r.conclude(StageOutcome{Stage: "sticky", Tier: 2, Decided: true, Conclusion: core.Terminates, Detail: "sticky says so"})
	r.conclude(StageOutcome{Stage: "guarded", Tier: 2, Decided: true, Conclusion: core.Diverges, Detail: "guarded says so"})
	flat := flatReport(mustSet(t, `A(X) -> R(X,Y).`), r.res.Stages)
	want = []string{"sticky says so", "CONTRADICTION: guarded says so says diverges but prior verdict was terminates"}
	if flat.Conclusion != core.Terminates || strings.Join(flat.Reasons, "\n") != strings.Join(want, "\n") {
		t.Errorf("contradiction: %v %q, want terminates %q", flat.Conclusion, flat.Reasons, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Report(ctx, workload.GuardedLadder(2).Set, portOpts()); err != context.Canceled {
		t.Errorf("cancelled Report: err = %v, want context.Canceled", err)
	}
}

// longCycle is a guarded, non-sticky set the probe routes onward at
// k = 64: a 70-rule cycle R_i(X,Y) -> R_{i+1 mod 70}(Y,Z) invents a null
// with every step and repeats no rule within 64 steps, so no pump surfaces
// on the probe's prefix; rule a only makes the set non-sticky.
func longCycle(t *testing.T) *tgds.Set {
	t.Helper()
	var b strings.Builder
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "R%d(X,Y) -> R%d(Y,Z).\n", i, (i+1)%70)
	}
	b.WriteString("a: A(X,Y), B(Y) -> C(X).\n")
	return mustSet(t, b.String())
}

// TestAnalyzeCancelledPropagates pins the cascade's own cancellation: a
// context cancelled mid-run surfaces as ctx's error, promptly. The probe
// routes longCycle onward, so the cascade reaches the Tier 2 chase the
// cancel is meant to interrupt; a context cancelled before the call
// surfaces from the probe.
func TestAnalyzeCancelledPropagates(t *testing.T) {
	set := longCycle(t)
	opts := portOpts()
	opts.Guarded.MaxSteps = 50_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Analyze(ctx, set, opts)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v (result %+v), want context.Canceled", err, res)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled Analyze took %v", elapsed)
	}
	// A context cancelled before the call stops the cascade at the probe,
	// the first stage that takes the context.
	stopped, stop := context.WithCancel(context.Background())
	stop()
	if _, err := Analyze(stopped, set, opts); err != context.Canceled {
		t.Fatalf("cancelled before the call: err = %v, want context.Canceled", err)
	}
}

// TestProbeRoutesOnwardStageRecord pins the probe's abstention: on
// longCycle the first seed exhausts k = 64 steps without a pump, so the
// probe claims nothing and Tier 2's guarded stage runs.
func TestProbeRoutesOnwardStageRecord(t *testing.T) {
	res, err := Analyze(context.Background(), longCycle(t), portOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := StageOutcome{
		Stage: "probe", Tier: 1, Steps: 64, Seeds: 1,
		Detail: "probe: 0/1 swept seeds saturated within 64 steps; routing onward",
	}
	var probe StageOutcome
	ranGuarded := false
	for _, s := range res.Stages {
		switch s.Stage {
		case "probe":
			probe = s
			probe.Duration = 0
		case "guarded":
			ranGuarded = s.Detail != "skipped: an earlier stage decided"
		}
	}
	if probe != want {
		t.Errorf("probe stage %+v, want %+v", probe, want)
	}
	if !ranGuarded {
		t.Errorf("guarded stage did not run after a routed probe: %+v", res.Stages)
	}
}

// TestWorkersOneIsSequentialCascade pins Tier 2 as a sequential cascade
// with early exit: a decisive first decider leaves the second skipped.
func TestWorkersOneIsSequentialCascade(t *testing.T) {
	opts := portOpts()
	res, err := Analyze(context.Background(), workload.LinearCycle(3).Set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DecidedBy != "sticky" || res.Conclusion != core.Diverges {
		t.Fatalf("linear cycle: %v by %q", res.Conclusion, res.DecidedBy)
	}
	for _, s := range res.Stages {
		if s.Stage == "guarded" && s.Detail != "skipped: an earlier stage decided" {
			t.Errorf("guarded stage after a decisive sticky stage not skipped: %+v", s)
		}
	}
}

// TestGuardedRacerStageRecords pins the guarded stage's record for each
// verdict shape it can receive — weak acyclicity, seed exhaustion, a
// divergence witness and a budget exhausted without a pump — by running
// the stage directly.
func TestGuardedRacerStageRecords(t *testing.T) {
	for _, tc := range []struct {
		src        string
		budget     int
		conclusion core.Conclusion
		detail     string
	}{
		{`A(X) -> R(X,Y). R(X,Y) -> B(Y).`, 500, core.Terminates, "guarded: weak acyclicity"},
		{`T(X,Y) -> T(X,W). T(X,Y) -> T(Y,X).`, 500, core.Terminates, "seeds exhausted at budget 500"},
		{`S(X) -> R(X,Y). R(X,Y) -> S(Y).`, 500, core.Diverges, "guarded: diverging witness database"},
		{`S(X) -> R(X,Y). R(X,Y) -> S(Y).`, 1, core.Unknown, "guarded: budget exhausted without certificate"},
	} {
		r := &runner{set: mustSet(t, tc.src), opts: Options{Guarded: guarded.DecideOptions{MaxSteps: tc.budget}}}
		s, err := r.runGuarded(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if s.Stage != "guarded" || s.Tier != 2 || s.Decided != (tc.conclusion != core.Unknown) ||
			s.Conclusion != tc.conclusion || !strings.Contains(s.Detail, tc.detail) {
			t.Errorf("%s at budget %d: stage %+v, want %v with detail %q", tc.src, tc.budget, s, tc.conclusion, tc.detail)
		}
	}
}

// TestSaltPinned pins the whole-run cache key's salt. Analyze's keeps the
// values it had while the seed-pool cap, the MFA bound and the probe
// budget were options, so stored stage ledgers keep hitting; Report's
// folds its schedule on top, so the two ledgers never serve each other.
func TestSaltPinned(t *testing.T) {
	for _, tc := range []struct {
		opts       Options
		exhaustive bool
		want       uint64
	}{
		{Options{}, false, 0x644975a15b5b45a4},
		{portOpts(), false, 0x47ddce8009d72b7},
		{Options{}, true, 0x74e41f3741ec3bf2},
		{portOpts(), true, 0x99dd2192cd6647ff},
	} {
		if got := tc.opts.salt(tc.exhaustive); got != tc.want {
			t.Errorf("salt(guarded budget %d, exhaustive %t) = %#x, want %#x", tc.opts.Guarded.MaxSteps, tc.exhaustive, got, tc.want)
		}
	}
}
