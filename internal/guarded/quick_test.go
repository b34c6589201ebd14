package guarded

import (
	"context"
	"testing"
	"testing/quick"

	"airct/internal/chase"
	"airct/internal/instance"
	"airct/internal/jointree"
	"airct/internal/logic"
	"airct/internal/ochase"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// Property: the step-log miner never fires on terminating runs.
func TestQuickNoFalsePumpsOnTerminatingRuns(t *testing.T) {
	var log stepLog
	var arena chase.Arena
	f := func(seed int64) bool {
		set := workload.RandomTGDSet(seed%4000, workload.RandomOptions{Rules: 3})
		if !set.IsGuarded() {
			return true
		}
		arena.Bind(set)
		for _, db := range GenerateSeeds(set, 4) {
			run := chaseLogged(context.Background(), &arena, db, chase.Options{Variant: chase.Restricted, MaxSteps: 500}, &log)
			if !run.Terminated() {
				continue
			}
			if ev, _, ok := log.pump(set, run.Final); ok {
				// A pump on a *terminating* run is not a soundness bug per
				// se (the signature repetition bound is heuristic), but on
				// short runs it would poison verdicts; surface it.
				t.Logf("seed %d: pump on terminating run: %s", seed, ev)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: treeified databases always validate and stay acyclic.
func TestQuickTreeifyAlwaysAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		set := workload.RandomTGDSet(seed%4000, workload.RandomOptions{Rules: 3})
		if !set.IsGuarded() {
			return true
		}
		seeds := GenerateSeeds(set, 8)
		if len(seeds) == 0 {
			return true
		}
		g := buildFragment(seeds[0], set)
		tr, err := Treeify(g, TreeifyOptions{IncludeDirect: true})
		if err != nil {
			return true // unguarded edge cases are rejected upstream
		}
		return jointreeIsAcyclic(tr.Dac) && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the Tier 1 rejecting probe never contradicts the full semantic
// procedure. On random guarded sets, whenever DecideContext at a k = 16
// prefix carries a divergence certificate, Decide at the full budget
// reaches the same diverging conclusion on the same seed through the same
// lemma — this is the empirical tripwire for the one corner the
// certificate argument leaves open (a budget-B run saturating past k would
// make bounded seed-exhaustion miss the divergence the pump soundly
// witnesses). The evidence strings are NOT compared: the pump pair quoted
// depends on the prefix length mined. Runs under the CI -race job alongside
// the other quick suites.
// Rejecting probes are rare on random sets (~1.5% of seeds), so this sweep
// is deterministic rather than quick.Check-sampled: every seed in the range
// is tried, which both pins the coverage floor and keeps failures
// reproducible by seed.
func TestQuickProbeRejectNeverContradictsDecide(t *testing.T) {
	rejected := 0
	for seed := int64(0); seed < 2000; seed++ {
		set := workload.RandomTGDSet(seed, workload.RandomOptions{Rules: 3, ExistentialBias: 60})
		if !set.IsGuarded() {
			continue
		}
		probe, err := Decide(set, DecideOptions{MaxSteps: 16})
		if err != nil || probe.Method != "divergence-witness" {
			continue
		}
		rejected++
		if probe.Evidence == "" || probe.Depth <= 0 || probe.Depth > 16 {
			t.Fatalf("seed %d: reject without an in-prefix certificate: %+v", seed, probe)
		}
		v, err := Decide(set, DecideOptions{MaxSteps: 400})
		if err != nil {
			t.Fatalf("seed %d: Decide error: %v", seed, err)
		}
		if v.Terminates {
			t.Fatalf("seed %d: probe rejected but Decide terminates: %+v\nset:\n%v", seed, v, set)
		}
		if v.Method != probe.Method || v.SeedsTried != probe.SeedsTried {
			t.Errorf("seed %d: reject drifted from Decide:\nprobe  %q / seed %d\ndecide %q / seed %d",
				seed, probe.Method, probe.SeedsTried, v.Method, v.SeedsTried)
		}
	}
	if rejected < 10 {
		t.Fatalf("only %d rejecting probes exercised; generator too narrow", rejected)
	}
}

// jointreeIsAcyclic and buildFragment adapt package internals for the
// property tests.
func jointreeIsAcyclic(atoms []logic.Atom) bool {
	return jointree.IsAcyclic(atoms)
}

func buildFragment(db *instance.Database, set *tgds.Set) *ochase.Graph {
	return ochase.Build(db, set, ochase.BuildOptions{MaxNodes: 300, MaxDepth: 5})
}
