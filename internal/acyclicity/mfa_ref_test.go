package acyclicity

import (
	"fmt"
	"testing"

	"airct/internal/chase"
	"airct/internal/critical"
	"airct/internal/logic"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// referenceCheckMFA is the naive round loop CheckMFA replaced, kept as the
// oracle for its semi-naive rounds: every round re-enumerates every
// trigger of the critical instance in canonical order (chase.AllTriggers),
// dedups frontier classes by their rendered frontier bindings and keys null
// origins by the creating TGD's rendered index.
func referenceCheckMFA(set *tgds.Set, maxSteps int) MFAResult {
	if maxSteps <= 0 {
		maxSteps = 100_000
	}
	db := critical.Instance(set)
	inst := db.Instance()
	nulls := chase.NewNullFactory()
	origin := make(map[logic.Term]string)
	parents := make(map[logic.Term][]logic.Term)
	appliedFrontier := make(map[string]struct{})
	steps := 0
	for {
		if steps >= maxSteps {
			return MFAResult{Acyclic: false, Steps: steps}
		}
		progressed := false
		for _, tr := range chase.AllTriggers(set, inst) {
			fk := fmt.Sprintf("%d|%s", tr.TGDIndex, tr.H.Restrict(tr.TGD.Frontier()).Key())
			if _, done := appliedFrontier[fk]; done {
				continue
			}
			appliedFrontier[fk] = struct{}{}
			result := chase.Result(tr, nulls)
			frontierNulls := referenceFrontierNulls(tr)
			for _, atom := range result {
				for _, term := range atom.Args {
					if !term.IsNull() {
						continue
					}
					if _, known := origin[term]; known {
						continue
					}
					origin[term] = fmt.Sprintf("%d", tr.TGDIndex)
					parents[term] = frontierNulls
					if referenceCyclicAncestry(term, origin, parents) {
						return MFAResult{Acyclic: false, CyclicNull: term, Steps: steps}
					}
				}
				inst.Add(atom)
			}
			steps++
			progressed = true
			if steps >= maxSteps {
				return MFAResult{Acyclic: false, Steps: steps}
			}
		}
		if !progressed {
			return MFAResult{Acyclic: true, Steps: steps}
		}
	}
}

func referenceFrontierNulls(tr chase.Trigger) []logic.Term {
	var out []logic.Term
	seen := map[logic.Term]bool{}
	for x := range tr.TGD.Frontier() {
		t := tr.H.ApplyTerm(x)
		if t.IsNull() && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func referenceCyclicAncestry(n logic.Term, origin map[logic.Term]string, parents map[logic.Term][]logic.Term) bool {
	want := origin[n]
	seen := map[logic.Term]bool{n: true}
	stack := append([]logic.Term{}, parents[n]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		if origin[v] == want {
			return true
		}
		stack = append(stack, parents[v]...)
	}
	return false
}

// mfaBudgets are the step budgets of the identity sweep: the portfolio's
// default, and two small ones that stop mid-round.
var mfaBudgets = []int{20000, 7, 50}

func checkMFAIdentity(t *testing.T, name string, set *tgds.Set) {
	t.Helper()
	for _, budget := range mfaBudgets {
		got, want := CheckMFA(set, budget), referenceCheckMFA(set, budget)
		if got != want {
			t.Fatalf("%s at budget %d: CheckMFA = %+v, reference = %+v", name, budget, got, want)
		}
	}
}

// TestCheckMFAMatchesReference pins the semi-naive rounds to the naive
// loop: Acyclic, Steps and CyclicNull (by name) agree on the corpus, the
// seven families at n = 2..14, random TGD sets and a few multi-head sets
// whose head order differs from their variable order, at budgets that
// saturate and budgets that stop mid-round.
func TestCheckMFAMatchesReference(t *testing.T) {
	for _, src := range []string{
		`R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y). R(X,Y,Z) -> R(Z,Z,Z).`,
		`A(X) -> R(X,Z,Y), S(Y,Z). R(X,Y,Z), S(Z,Y) -> A(Y).`,
		`E(X,Y), E(Y,Z) -> E(X,W), E(W,Z).`,
		`A(X) -> B(X,Y). B(X,Y) -> C(Y,Z), A(Z).`,
	} {
		checkMFAIdentity(t, src, set(t, src))
	}
	for _, l := range workload.Corpus() {
		checkMFAIdentity(t, l.Name, l.Set)
	}
	families := []func(int) workload.Labeled{
		workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle,
		workload.SwapIntro, workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
	}
	for _, fam := range families {
		for n := 2; n <= 14; n++ {
			l := fam(n)
			checkMFAIdentity(t, l.Name, l.Set)
		}
	}
	for seed := int64(0); seed < 600; seed++ {
		checkMFAIdentity(t, fmt.Sprintf("RandomTGDSet(%d)", seed), workload.RandomTGDSet(seed, workload.RandomOptions{}))
	}
	for seed := int64(0); seed < 600; seed++ {
		checkMFAIdentity(t, fmt.Sprintf("RandomExistentialProgram(%d)", seed), workload.RandomExistentialProgram(seed).TGDs)
	}
}

// BenchmarkCheckMFA times the semi-naive check against the naive reference
// on the family programs at n = 12.
func BenchmarkCheckMFA(b *testing.B) {
	for _, fam := range []func(int) workload.Labeled{
		workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle,
		workload.SwapIntro, workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
	} {
		l := fam(12)
		b.Run(l.Name+"/semi-naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CheckMFA(l.Set, 20000)
			}
		})
		b.Run(l.Name+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				referenceCheckMFA(l.Set, 20000)
			}
		})
	}
}
