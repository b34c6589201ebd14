package guarded

import (
	"testing"

	"airct/internal/acyclicity"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// BenchmarkDecideCold measures the seed battery cold: one op is Decide at
// budget 2000 with no cache on each of the 15 programs of first-contact's
// flat mix (workload.Corpus() plus the seven families at n ≤ 4) that are
// guarded and not weakly acyclic, the flat decides that run the battery.
func BenchmarkDecideCold(b *testing.B) {
	seen := map[string]bool{}
	var sets []*tgds.Set
	add := func(l workload.Labeled) {
		if !seen[l.Name] && l.Set.IsGuarded() && !acyclicity.IsWeaklyAcyclic(l.Set) {
			sets = append(sets, l.Set)
		}
		seen[l.Name] = true
	}
	for _, l := range workload.Corpus() {
		add(l)
	}
	for _, fam := range []func(int) workload.Labeled{
		workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle, workload.SwapIntro,
		workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
	} {
		for n := 2; n <= 4; n++ {
			add(fam(n))
		}
	}
	if len(sets) != 15 {
		b.Fatalf("%d guarded, non-weakly-acyclic programs in the flat mix, want 15", len(sets))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			if _, err := Decide(set, DecideOptions{MaxSteps: 2000}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
