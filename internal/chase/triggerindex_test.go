package chase

// Differential and property tests for the delta-maintained trigger index
// (triggerindex.go). Two angles:
//
//   - ground truth at every expansion: the onExpand hook pins the index's
//     trigger list — order included — against the public
//     ActiveTriggers(set, inst) enumeration on the very instance being
//     expanded, across frontier orders and workloads;
//   - the fullRescan baseline: with the index disabled the search runs the
//     pre-index full re-enumeration, and the two modes must agree
//     bit-identically on verdicts, StatesVisited, expansion counts and the
//     witness itself;
//   - inheritance/repair as a property: along random derivation walks of
//     random TGD sets (datalog and existential), repairing the parent's
//     index with the delta must equal rebuilding from scratch, step after
//     step.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/workload"
)

// indexGroundTruthPrograms: the differential corpus plus the deep stage
// grids the benchmarks run on (kept small enough for an every-expansion
// comparison against the quadratic public enumeration).
func indexGroundTruthPrograms() []struct {
	name      string
	src       string
	maxStates int
	maxAtoms  int
} {
	progs := append([]struct {
		name      string
		src       string
		maxStates int
		maxAtoms  int
	}{}, differentialExistsPrograms...)
	progs = append(progs, struct {
		name      string
		src       string
		maxStates int
		maxAtoms  int
	}{"stage-grid-5", parser.Print(workload.StageGrid(5)), 0, 0})
	return progs
}

// TestTriggerIndexMatchesActiveTriggersGroundTruth pins the index against
// ActiveTriggers(set, inst) at every expansion, across frontier orders and
// the corpus: same triggers, same canonical order.
func TestTriggerIndexMatchesActiveTriggersGroundTruth(t *testing.T) {
	for _, tc := range indexGroundTruthPrograms() {
		for _, order := range searchOrders {
			t.Run(tc.name+"/"+order.name, func(t *testing.T) {
				prog := parser.MustParse(tc.src)
				expansions := 0
				opts := SearchOptions{
					MaxStates: tc.maxStates,
					MaxAtoms:  tc.maxAtoms,
					order:     order.order,
					onExpand: func(_ *searcher, _ int32, inst *instance.Instance, active []Trigger) {
						expansions++
						want := ActiveTriggers(prog.TGDs, inst)
						if len(active) != len(want) {
							t.Fatalf("expansion %d: %d active triggers, ground truth %d\nindex: %s\ntruth: %s",
								expansions, len(active), len(want), formatTriggers(active), formatTriggers(want))
						}
						for i := range want {
							if CompareTriggers(active[i], want[i]) != 0 {
								t.Fatalf("expansion %d, position %d: index has %s, ground truth %s",
									expansions, i, active[i], want[i])
							}
						}
					},
				}
				res := mustSearch(t, prog.Database, prog.TGDs, opts)
				if expansions != res.Stats.StatesExpanded {
					t.Fatalf("hook saw %d expansions, stats counted %d", expansions, res.Stats.StatesExpanded)
				}
				if res.Stats.IndexRebuilds != 1 {
					t.Errorf("sequential search must rebuild only the root index, got %d rebuilds", res.Stats.IndexRebuilds)
				}
				if res.Stats.IndexRepairs != res.Stats.StatesExpanded-1 {
					t.Errorf("repairs = %d, want %d (every non-root expansion)",
						res.Stats.IndexRepairs, res.Stats.StatesExpanded-1)
				}
			})
		}
	}
}

// TestSearchDeltaIndexMatchesFullRescan pins the delta-maintained index
// against the full re-enumeration baseline bit-identically: sequentially the
// two modes must produce the same verdict, the same StatesVisited and
// expansion counts, and the very same witness (the search is
// deterministic), and every witness must replay.
func TestSearchDeltaIndexMatchesFullRescan(t *testing.T) {
	for _, tc := range indexGroundTruthPrograms() {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse(tc.src)
			for _, order := range searchOrders {
				strat := order.name
				base := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{
					MaxStates: tc.maxStates, MaxAtoms: tc.maxAtoms, order: order.order, fullRescan: true,
				})
				delta := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{
					MaxStates: tc.maxStates, MaxAtoms: tc.maxAtoms, order: order.order,
				})
				if delta.Found != base.Found || delta.Exhausted != base.Exhausted {
					t.Fatalf("%v: verdict drifted: (%v,%v) vs baseline (%v,%v)",
						strat, delta.Found, delta.Exhausted, base.Found, base.Exhausted)
				}
				if delta.StatesVisited != base.StatesVisited {
					t.Errorf("%v: StatesVisited = %d, baseline %d", strat, delta.StatesVisited, base.StatesVisited)
				}
				if delta.Stats.StatesExpanded != base.Stats.StatesExpanded {
					t.Errorf("%v: StatesExpanded = %d, baseline %d",
						strat, delta.Stats.StatesExpanded, base.Stats.StatesExpanded)
				}
				if len(delta.Derivation) != len(base.Derivation) {
					t.Fatalf("%v: witness lengths differ: %d vs %d", strat, len(delta.Derivation), len(base.Derivation))
				}
				for i := range delta.Derivation {
					if CompareTriggers(delta.Derivation[i], base.Derivation[i]) != 0 {
						t.Fatalf("%v: witness step %d differs: %s vs %s",
							strat, i, delta.Derivation[i], base.Derivation[i])
					}
				}
				if delta.Found {
					replayWitness(t, prog, delta.Derivation, tc.name)
				}
			}
		})
	}
}

// replayWitness applies the derivation step by step and fails the test if
// any step is refused or the final instance is not a fixpoint. It returns
// the fixpoint size.
func replayWitness(t *testing.T, prog *parser.Program, deriv []Trigger, label string) int {
	t.Helper()
	d := NewDerivation(prog.Database, prog.TGDs)
	for i, tr := range deriv {
		if err := d.Apply(tr); err != nil {
			t.Fatalf("%s: witness step %d does not replay: %v", label, i, err)
		}
	}
	if len(d.Active()) > 0 {
		t.Fatalf("%s: witness does not end in a fixpoint", label)
	}
	return d.Instance().Len()
}

// randomExistentialProgram is the shared workload generator (promoted to
// internal/workload; see randomDatalog in quick_test.go).
func randomExistentialProgram(seed int64) *parser.Program {
	return workload.RandomExistentialProgram(seed)
}

// walkAndCheckRepairs drives an expander along a random derivation walk of
// the program, repairing the index at each step and comparing its region
// against a from-scratch rebuild's, run by run: identical per-TGD counts
// and trigger IDs (the trig table dedups tuples, so equal tuples mean equal
// IDs). Both regions live in the expander's slab, and every region but the
// walk's current one is released, so the walk also drives the slab's free
// lists.
func walkAndCheckRepairs(t testing.TB, prog *parser.Program, rng *rand.Rand, maxSteps int) bool {
	e := newExpander(prog.Database, prog.TGDs)
	inst := instance.NewWithInterner(e.itab)
	e.addDeltaTo(inst, e.rootDelta)
	e.buildIndex(inst)
	idx := e.slab.put(e.counts, e.ids)
	for step := 0; step < maxSteps; step++ {
		_, all := e.slab.region(idx)
		if len(all) == 0 {
			return true // fixpoint
		}
		pick := all[rng.Intn(len(all))]
		tup := e.trig.Tuple(pick)
		tgd := int(tup[0])
		e.childState(inst, logic.Fingerprint{}, pick, tgd, tup[1:])
		deltaLo := int32(inst.Len())
		e.addDeltaTo(inst, e.deltaBuf)
		if int32(inst.Len()) == deltaLo {
			t.Errorf("active trigger added no atoms — activity check broken")
			return false
		}
		e.repairIndex(idx, inst, deltaLo)
		repaired := e.slab.put(e.counts, e.ids)
		e.buildIndex(inst)
		rebuilt := e.slab.put(e.counts, e.ids)
		rc, rids := e.slab.region(repaired)
		bc, bids := e.slab.region(rebuilt)
		if len(rids) != len(bids) {
			t.Errorf("step %d: repaired total %d, rebuilt %d", step, len(rids), len(bids))
			return false
		}
		for i := range bc {
			if rc[i] != bc[i] {
				t.Errorf("step %d, TGD %d: repaired %d triggers, rebuilt %d", step, i, rc[i], bc[i])
				return false
			}
			for k := range bc[i] {
				if rids[k] != bids[k] {
					t.Errorf("step %d, TGD %d, pos %d: repaired trigger %v, rebuilt %v",
						step, i, k, e.trig.Tuple(rids[k]), e.trig.Tuple(bids[k]))
					return false
				}
			}
			rids, bids = rids[rc[i]:], bids[bc[i]:]
		}
		e.slab.release(idx)
		e.slab.release(rebuilt)
		idx = repaired
	}
	return true
}

// TestQuickIndexRepairMatchesRebuild is the inheritance/repair property:
// across random TGD sets — pure datalog and existential — and random
// derivation walks, the repaired index always equals the rebuilt one.
func TestQuickIndexRepairMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomDatalog(seed % 5000)
		if !walkAndCheckRepairs(t, prog, rng, 15) {
			return false
		}
		prog = randomExistentialProgram(seed % 5000)
		return walkAndCheckRepairs(t, prog, rng, 12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
