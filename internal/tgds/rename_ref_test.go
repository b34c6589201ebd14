package tgds_test

import (
	"fmt"
	"testing"

	"airct/internal/logic"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// referenceRename is the substitution-based TGD.Rename that the sorted,
// binary-searched renaming replaced, kept as its oracle: a Substitution
// binds each variable of VarsOf(body ∪ head), in sorted order, to the
// namer's next variable.
func referenceRename(t tgds.TGD, namer *logic.FreshNamer) tgds.TGD {
	all := append(append([]logic.Atom{}, t.Body...), t.Head...)
	ren := logic.NewSubstitution()
	for _, v := range logic.VarsOf(all).Sorted() {
		ren.Bind(v, namer.NextVar())
	}
	return tgds.TGD{Label: t.Label, Body: ren.ApplyAtoms(t.Body), Head: ren.ApplyAtoms(t.Head)}
}

// TestRenameMatchesReference renames every TGD of the corpus, the random
// generators at seeds 0–499 and sets with ten or more variables (whose
// names V10 < V2 sort apart from their numbers) through one shared namer
// on each side: the renamed TGDs, and so the namer sequence, agree.
func TestRenameMatchesReference(t *testing.T) {
	got, want := logic.NewFreshNamer("V"), logic.NewFreshNamer("V")
	check := func(name string, s *tgds.Set) {
		t.Helper()
		for _, tgd := range s.TGDs {
			a, b := tgd.Rename(got), referenceRename(tgd, want)
			if a.String() != b.String() || a.Label != b.Label {
				t.Fatalf("%s: Rename gives %s: %v, reference %s: %v", name, a.Label, a, b.Label, b)
			}
		}
	}
	for _, l := range workload.Corpus() {
		check(l.Name, l.Set)
	}
	for _, n := range []int{6, 12} {
		check(workload.StickyJoin(n).Name, workload.StickyJoin(n).Set)
	}
	check("shift-1023", widestShift(t))
	for seed := int64(0); seed < 500; seed++ {
		check(fmt.Sprintf("RandomExistentialProgram(%d)", seed), workload.RandomExistentialProgram(seed).TGDs)
		check(fmt.Sprintf("RandomTGDSet(%d)", seed), workload.RandomTGDSet(seed, workload.RandomOptions{}))
	}
}
