package acyclicity

import (
	"fmt"
	"strings"
	"testing"

	"airct/internal/tgds"
	"airct/internal/workload"
)

// families are the seven workload families the oracle sweeps run at
// small n.
var families = []func(int) workload.Labeled{
	workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle,
	workload.SwapIntro, workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
}

// forEachSweepSet calls f on the inputs of the Tier 0 oracle sweeps: a few
// multi-head sets, the corpus, the seven families at n = 2..12 and the
// three random generators at seeds 0–1999 (RandomExistentialProgram,
// RandomTGDSet with the default options, and RandomTGDSet with three rules
// and a 60% existential bias). random is true for the generated sets only,
// so a check can require that they alone produce every answer.
func forEachSweepSet(t *testing.T, f func(name string, s *tgds.Set, random bool)) {
	t.Helper()
	for _, src := range []string{
		`R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y). R(X,Y,Z) -> R(Z,Z,Z).`,
		`A(X) -> R(X,Z,Y), S(Y,Z). R(X,Y,Z), S(Z,Y) -> A(Y).`,
		`E(X,Y), E(Y,Z) -> E(X,W), E(W,Z).`,
		`A(X) -> B(X,Y). B(X,Y) -> C(Y,Z), A(Z).`,
		`R(X,X) -> S(X,Y). S(X,Y), R(Y,X) -> R(X,Y).`,
		`T(X,Y) -> T(X,W). T(X,Y) -> T(Y,X).`,
		`E(X,Y), E(Y,Z), E(Z,X) -> E(X,Y).`,
		`E(X,Y), E(Y,Z), E(Z,W) -> E(X,V), E(V,Z).`,
		`R(X,Y), S(Y,Z), T(Z,X), U(X) -> R(X,W).`,
	} {
		f(src, set(t, src), false)
	}
	for _, l := range workload.Corpus() {
		f(l.Name, l.Set, false)
	}
	for _, fam := range families {
		for n := 2; n <= 12; n++ {
			l := fam(n)
			f(l.Name, l.Set, false)
		}
	}
	for seed := int64(0); seed < 2000; seed++ {
		f(fmt.Sprintf("RandomExistentialProgram(%d)", seed), workload.RandomExistentialProgram(seed).TGDs, true)
		f(fmt.Sprintf("RandomTGDSet(%d)", seed), workload.RandomTGDSet(seed, workload.RandomOptions{}), true)
		f(fmt.Sprintf("RandomTGDSet(%d, biased)", seed), workload.RandomTGDSet(seed, workload.RandomOptions{Rules: 3, ExistentialBias: 60}), true)
	}
}

// worstCases are the large inputs of the Tier 0 oracle tests, by name: the
// linear sticky cycle Pi(X,Y) -> Pi+1(Y,Z) for i < 2,000 closed by
// P2000(X,Y) -> P0(Y,Z), the 1023-ary shift R(X1,…,X1023) ->
// R(X2,…,X1023,Y), the widest rule the parser admits, and
// ExistentialChain(4000).
func worstCases(t *testing.T) []struct {
	name string
	set  *tgds.Set
} {
	t.Helper()
	var b strings.Builder
	const n = 2000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "P%d(X,Y) -> P%d(Y,Z).\n", i, i+1)
	}
	fmt.Fprintf(&b, "P%d(X,Y) -> P0(Y,Z).\n", n)
	return []struct {
		name string
		set  *tgds.Set
	}{
		{"sticky-cycle-2000", set(t, b.String())},
		{"shift-1023", widestShift(t)},
		{"existential-chain-4000", workload.ExistentialChain(4000).Set},
	}
}

// widestShift is the 1023-ary shift R(X1,…,X1023) -> R(X2,…,X1023,Y).
func widestShift(t *testing.T) *tgds.Set {
	t.Helper()
	var body, head []string
	for i := 1; i <= 1023; i++ {
		body = append(body, fmt.Sprintf("X%d", i))
		if i > 1 {
			head = append(head, fmt.Sprintf("X%d", i))
		}
	}
	head = append(head, "Y")
	return set(t, fmt.Sprintf("R(%s) -> R(%s).", strings.Join(body, ","), strings.Join(head, ",")))
}

// slowReferences reports whether to skip the reference runs that take
// seconds on the worst cases (the DFS per special edge on
// ExistentialChain(4000), the round-based joint acyclicity on the shift and
// the chain): under -short, and under the race detector, which slows them
// several times over.
func slowReferences() bool { return testing.Short() || raceEnabled }
