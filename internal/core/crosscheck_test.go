package core_test

import (
	"testing"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/guarded"
	"airct/internal/sticky"
	"airct/internal/workload"
)

// The cross-validation battery: on randomly generated TGD sets, the
// decision procedures must agree with each other and with empirical
// chasing wherever their claims overlap. These are the strongest tests in
// the repository — they exercise the full pipeline on inputs nobody
// hand-picked.

const randomSets = 120

func TestCrossCheckStickyVerdictsAgainstEmpiricalChase(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < randomSets; seed++ {
		set := workload.RandomTGDSet(seed, workload.RandomOptions{})
		if !set.IsSticky() {
			continue
		}
		checked++
		v, err := sticky.Decide(set, sticky.DecideOptions{MaxStates: 50000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Terminating verdict ⇒ every seed database saturates under every
		// strategy (soundness of the Büchi emptiness).
		if v.Terminates && v.Complete {
			for _, db := range guarded.GenerateSeeds(set, 32) {
				for _, o := range []chase.Options{
					{Variant: chase.Restricted, Strategy: chase.FIFO, MaxSteps: 2000, DropSteps: true},
					{Variant: chase.Restricted, Strategy: chase.LIFO, MaxSteps: 2000, DropSteps: true},
					{Variant: chase.Restricted, Strategy: chase.Random, Seed: seed, MaxSteps: 2000, DropSteps: true},
				} {
					if run := chase.RunChase(db, set, o); !run.Terminated() {
						t.Fatalf("seed %d: sticky verdict says terminating but %v diverges under %v on\n%v",
							seed, db, o.Strategy, set)
					}
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d sticky sets among %d random draws; generator too narrow", checked, randomSets)
	}
}

func TestCrossCheckGuardedVerdictsAgainstEmpiricalChase(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < randomSets; seed++ {
		set := workload.RandomTGDSet(seed, workload.RandomOptions{})
		if !set.IsGuarded() {
			continue
		}
		checked++
		v, err := guarded.Decide(set, guarded.DecideOptions{MaxSteps: 1200})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !v.Terminates {
			// Diverging verdicts ship a witness: it must actually exhaust
			// its budget on replay.
			run := chase.RunChase(v.Witness, set, chase.Options{
				Variant: chase.Restricted, MaxSteps: v.Budget, DropSteps: true,
			})
			if run.Terminated() {
				t.Fatalf("seed %d: witness %v terminated on replay for\n%v", seed, v.Witness, set)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d guarded sets among %d random draws", checked, randomSets)
	}
}

func TestCrossCheckDecidersAgreeOnIntersection(t *testing.T) {
	// Sets that are both guarded and sticky get two independent verdicts;
	// they must never contradict (when both are confident).
	agreements, checked := 0, 0
	for seed := int64(0); seed < randomSets; seed++ {
		set := workload.RandomTGDSet(seed, workload.RandomOptions{})
		if !set.IsGuarded() || !set.IsSticky() {
			continue
		}
		sv, err := sticky.Decide(set, sticky.DecideOptions{MaxStates: 50000})
		if err != nil {
			t.Fatalf("seed %d sticky: %v", seed, err)
		}
		gv, err := guarded.Decide(set, guarded.DecideOptions{MaxSteps: 1200})
		if err != nil {
			t.Fatalf("seed %d guarded: %v", seed, err)
		}
		checked++
		if !sv.Complete || gv.Method == "budget-exhausted" {
			continue // one side is unsure; no contradiction to claim
		}
		// The sticky verdict is the paper's exact algorithm; the guarded
		// bounded search may miss divergence (seed too shallow) but must
		// never claim divergence on a sticky-terminating set.
		if sv.Terminates && !gv.Terminates {
			t.Fatalf("seed %d: sticky says terminates, guarded found witness %v\n%v",
				seed, gv.Witness, set)
		}
		if sv.Terminates == gv.Terminates {
			agreements++
		}
	}
	if checked < 5 {
		t.Fatalf("only %d sets in the intersection", checked)
	}
	if agreements < checked*3/4 {
		t.Errorf("deciders agree on only %d/%d intersection sets", agreements, checked)
	}
}

func TestCrossCheckWAImpliesEveryVerdictTerminates(t *testing.T) {
	for seed := int64(0); seed < randomSets; seed++ {
		set := workload.RandomTGDSet(seed, workload.RandomOptions{})
		if !acyclicity.IsWeaklyAcyclic(set) {
			continue
		}
		// WA is a sound termination proof; neither decider may contradict.
		if set.IsSticky() {
			v, err := sticky.Decide(set, sticky.DecideOptions{MaxStates: 50000})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !v.Terminates {
				t.Fatalf("seed %d: WA set judged diverging by sticky decider:\n%v\nlasso %v",
					seed, set, v.Lasso)
			}
		}
		if set.IsGuarded() {
			v, err := guarded.Decide(set, guarded.DecideOptions{MaxSteps: 1200})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !v.Terminates {
				t.Fatalf("seed %d: WA set judged diverging by guarded decider:\n%v", seed, set)
			}
		}
	}
}

func TestCrossCheckAnalyzeNeverContradicts(t *testing.T) {
	for seed := int64(0); seed < randomSets; seed++ {
		set := workload.RandomTGDSet(seed, workload.RandomOptions{})
		rep, err := analyze(set)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, why := range rep.Reasons {
			if len(why) >= 13 && why[:13] == "CONTRADICTION" {
				t.Fatalf("seed %d: %s\n%v\n%s", seed, why, set, rep.Summary())
			}
		}
	}
}
