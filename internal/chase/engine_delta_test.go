package chase

// Differential tests for the engine's delta-maintained activity checks
// (engine.go): the pop-time resolution — birth verdict + head-predicate
// watermark + delta-pinned head search — must match the old full activity
// check at EVERY pop, not just produce the same run. Two angles:
//
//   - ground truth at every pop: the onActivity hook receives the delta
//     resolution next to a freshly computed full-search answer on the very
//     instance being popped against (the engine computes both when the
//     hook is set), across the differential corpus and both shared random
//     program generators;
//   - the fullActivity baseline: with the machinery disabled the engine is
//     the pre-delta engine, and the two modes must agree byte-for-byte
//     (sameRun: Final insertion order, Steps, Stats, StopReason).

import (
	"fmt"
	"testing"

	"airct/internal/parser"
)

// TestEngineDeltaActivityMatchesFullCheckAtEveryPop pins the delta
// resolution against the full check at every single pop.
func TestEngineDeltaActivityMatchesFullCheckAtEveryPop(t *testing.T) {
	check := func(t *testing.T, label string, prog *parser.Program, strat Strategy) {
		t.Helper()
		pops, mismatches := 0, 0
		opts := Options{
			Variant:  Restricted,
			Strategy: strat,
			Seed:     11,
			MaxSteps: 300,
			MaxAtoms: 400,
			onActivity: func(tgd int, bt []uint32, delta, full bool) {
				pops++
				if delta != full {
					mismatches++
				}
			},
		}
		run := RunChase(prog.Database, prog.TGDs, opts)
		if mismatches > 0 {
			t.Errorf("%s/%v: %d of %d pops resolved activity differently from the full check", label, strat, mismatches, pops)
		}
		if pops != run.Stats.ActivityChecks {
			t.Errorf("%s/%v: hook saw %d pops but ActivityChecks counted %d", label, strat, pops, run.Stats.ActivityChecks)
		}
		if got := run.Activity.WatermarkSkips + run.Activity.DeltaRechecks; got > pops {
			t.Errorf("%s/%v: delta machinery resolved %d pops out of %d", label, strat, got, pops)
		}
	}
	for name, src := range differentialPrograms() {
		prog := parser.MustParse(src)
		for _, strat := range []Strategy{FIFO, LIFO, Random} {
			check(t, name, prog, strat)
		}
	}
	for seed := int64(0); seed < 25; seed++ {
		check(t, fmt.Sprintf("datalog-%d", seed), randomDatalog(seed), FIFO)
		check(t, fmt.Sprintf("existential-%d", seed), randomExistentialProgram(seed), FIFO)
	}
}

// TestEngineDeltaActivityMatchesFullActivityRuns pins the delta engine
// byte-identical to the fullActivity baseline across the corpus, the
// random generators and all strategies.
func TestEngineDeltaActivityMatchesFullActivityRuns(t *testing.T) {
	programs := make(map[string]*parser.Program)
	for name, src := range differentialPrograms() {
		programs[name] = parser.MustParse(src)
	}
	for seed := int64(0); seed < 15; seed++ {
		programs[fmt.Sprintf("datalog-%d", seed)] = randomDatalog(seed)
		programs[fmt.Sprintf("existential-%d", seed)] = randomExistentialProgram(seed)
	}
	for name, prog := range programs {
		for _, strat := range []Strategy{FIFO, LIFO, Random} {
			opts := Options{
				Variant:  Restricted,
				Strategy: strat,
				Seed:     7,
				MaxSteps: 300,
				MaxAtoms: 400,
			}
			got := RunChase(prog.Database, prog.TGDs, opts)
			opts.fullActivity = true
			want := RunChase(prog.Database, prog.TGDs, opts)
			sameRun(t, fmt.Sprintf("%s/%v", name, strat), got, want)
			if got.Activity.BirthChecks == 0 && got.Stats.TriggersEnqueued > 0 {
				t.Errorf("%s/%v: delta engine performed no birth checks", name, strat)
			}
			if want.Activity != (DeltaActivityStats{}) {
				t.Errorf("%s/%v: fullActivity engine recorded delta stats %+v", name, strat, want.Activity)
			}
		}
	}
}

// TestCacheActivityTotalsAggregateRuns pins the /v1/stats engine-activity
// surface: every run sharing the cache reports into ActivityTotals, and the
// totals mirror the per-run Activity/Stats counters it folded in.
func TestCacheActivityTotalsAggregateRuns(t *testing.T) {
	cache := NewCache()
	if got := cache.ActivityTotals(); got != (ActivityTotals{}) {
		t.Fatalf("fresh cache has activity: %+v", got)
	}
	prog := parser.MustParse(`
		E(X,Y) -> E(Y,Z).
		E(a,b).
	`)
	var wantChecks, wantBirth int64
	const runs = 3
	for i := 0; i < runs; i++ {
		run := RunChase(prog.Database, prog.TGDs, Options{
			Variant: Restricted, MaxSteps: 20, Cache: cache,
		})
		wantChecks += int64(run.Stats.ActivityChecks)
		wantBirth += int64(run.Activity.BirthChecks)
	}
	got := cache.ActivityTotals()
	if got.Runs != runs {
		t.Errorf("runs = %d, want %d", got.Runs, runs)
	}
	if got.ActivityChecks != wantChecks || got.BirthChecks != wantBirth {
		t.Errorf("totals %+v drifted from per-run sums (checks %d, birth %d)", got, wantChecks, wantBirth)
	}
	if got.SeedIndexHits != 0 {
		t.Errorf("seed-index hits = %d, want 0 (the seed-index kind is deleted)", got.SeedIndexHits)
	}
}
