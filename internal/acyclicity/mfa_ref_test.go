package acyclicity

import (
	"fmt"
	"testing"

	"airct/internal/chase"
	"airct/internal/critical"
	"airct/internal/logic"
	"airct/internal/tgds"
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

// TestCheckMFAMatchesReference pins the semi-naive rounds on the compiled
// set to the naive loop: Acyclic, Steps and CyclicNull (by name) agree on
// the sweep sets (forEachSweepSet, which includes multi-head sets whose
// head order differs from their variable order), the families at n = 13
// and 14 and the worst cases, at budgets that saturate and budgets that
// stop mid-round.
func TestCheckMFAMatchesReference(t *testing.T) {
	forEachSweepSet(t, func(name string, s *tgds.Set, _ bool) { checkMFAIdentity(t, name, s) })
	for _, fam := range families {
		for n := 13; n <= 14; n++ {
			l := fam(n)
			checkMFAIdentity(t, l.Name, l.Set)
		}
	}
	for _, wc := range worstCases(t) {
		if slowReferences() {
			if got := CheckMFA(wc.set, 20000); got.Acyclic {
				t.Errorf("%s: CheckMFA = %+v, want not acyclic", wc.name, got)
			}
			continue
		}
		checkMFAIdentity(t, wc.name, wc.set)
	}
}

// BenchmarkCheckMFA times the semi-naive check against the naive reference
// on the family programs at n = 12.
func BenchmarkCheckMFA(b *testing.B) {
	for _, fam := range families {
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
