package guarded

import (
	"context"
	"testing"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// referenceDecide is DecideContext as an eager scan, the shape the seed
// sweep replaced: generate the whole GenerateSeeds pool, chase the seeds in
// order and report the first that does not saturate. No cache.
func referenceDecide(set *tgds.Set, opts DecideOptions) *Verdict {
	if acyclicity.IsWeaklyAcyclic(set) {
		return &Verdict{Terminates: true, Method: "weak-acyclicity"}
	}
	budget := opts.maxSteps()
	seeds := GenerateSeeds(set, 256)
	depth := 0
	var b battery
	b.arena.Bind(set)
	for i, s := range seeds {
		v, steps := chaseSeedBattery(context.Background(), &b, set, s, budget, nil)
		if v == nil {
			depth = max(depth, steps)
			continue
		}
		if v.Method == "divergence-witness" {
			depth = max(depth, v.PumpDepth)
		}
		v.SeedsTried, v.Budget, v.Depth = i+1, budget, depth
		return v
	}
	return &Verdict{Terminates: true, Method: "seed-exhaustion", SeedsTried: len(seeds), Budget: budget, Depth: depth}
}

// sameVerdictFields compares every Verdict field, the witness by rendering.
func sameVerdictFields(a, b *Verdict) bool {
	if a.Terminates != b.Terminates || a.Method != b.Method || a.Evidence != b.Evidence ||
		a.PumpDepth != b.PumpDepth || a.SeedsTried != b.SeedsTried || a.Budget != b.Budget || a.Depth != b.Depth {
		return false
	}
	if (a.Witness == nil) != (b.Witness == nil) {
		return false
	}
	return a.Witness == nil || a.Witness.String() == b.Witness.String()
}

// sweepSets are the guarded inputs of the sweep identity test: the
// guarded families at small n, the corpus' guarded programs and random
// guarded sets that weak acyclicity does not already decide.
func sweepSets() []*tgds.Set {
	var sets []*tgds.Set
	for _, fam := range []func(int) workload.Labeled{
		workload.GuardedLadder, workload.LinearCycle, workload.StickyRelay,
		workload.SwapIntro, workload.ExistentialChain,
	} {
		for n := 2; n <= 4; n++ {
			sets = append(sets, fam(n).Set)
		}
	}
	for _, l := range workload.Corpus() {
		if l.Set.IsGuarded() {
			sets = append(sets, l.Set)
		}
	}
	for seed := int64(0); len(sets) < 50; seed++ {
		if s := workload.RandomTGDSet(seed, workload.RandomOptions{Rules: 3}); s.IsGuarded() && !acyclicity.IsWeaklyAcyclic(s) {
			sets = append(sets, s)
		}
	}
	return sets
}

// TestSeedSweepMatchesEagerScan pins the lazy seed sweep to the eager
// scan: every Verdict field agrees, with and without a cache to receive
// the engine's activity counters.
func TestSeedSweepMatchesEagerScan(t *testing.T) {
	methods := map[string]int{}
	for i, set := range sweepSets() {
		opts := DecideOptions{MaxSteps: 200}
		want := referenceDecide(set, opts)
		methods[want.Method]++
		check := func(label string, cache *chase.Cache) {
			t.Helper()
			opts.Cache = cache
			got, err := Decide(set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameVerdictFields(got, want) {
				t.Fatalf("set %d, %s: sweep %+v, eager scan %+v\n%v", i, label, got, want, set)
			}
		}
		check("no cache", nil)
		check("cache", chase.NewCache())
	}
	if methods["divergence-witness"] < 10 || methods["seed-exhaustion"] < 10 {
		t.Fatalf("verdict methods %v: the sweep must cover diverging and saturating pools", methods)
	}
}

func mustSet(t *testing.T, src string) *tgds.Set {
	t.Helper()
	set, err := parser.ParseTGDs(src)
	if err != nil {
		t.Fatal(err)
	}
	return set
}
