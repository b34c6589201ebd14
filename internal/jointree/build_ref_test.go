package jointree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"airct/internal/logic"
)

// referenceBuild is the map-based GYO ear removal that Build ran before it
// moved onto Hypergraph, kept as its oracle: term sets per atom and a
// Term-keyed occurrence count. It returns each atom's witness (-1 for the
// root) when the atoms are acyclic.
func referenceBuild(atoms []logic.Atom) ([]int, bool) {
	n := len(atoms)
	alive := make([]bool, n)
	parent := make([]int, n)
	for i := range alive {
		alive[i], parent[i] = true, -1
	}
	occ := make(map[logic.Term]int)
	termSets := make([]logic.TermSet, n)
	for i, a := range atoms {
		termSets[i] = a.Terms()
		for t := range termSets[i] {
			occ[t]++
		}
	}
	aliveCount := n
	for removed := true; removed && aliveCount > 1; {
		removed = false
		for i := 0; i < n && aliveCount > 1; i++ {
			if !alive[i] {
				continue
			}
			var shared []logic.Term
			for t := range termSets[i] {
				if occ[t] > 1 {
					shared = append(shared, t)
				}
			}
			for j := 0; j < n; j++ {
				if i == j || !alive[j] {
					continue
				}
				covers := true
				for _, t := range shared {
					if !termSets[j].Has(t) {
						covers = false
						break
					}
				}
				if covers {
					alive[i] = false
					aliveCount--
					parent[i] = j
					for t := range termSets[i] {
						occ[t]--
					}
					removed = true
					break
				}
			}
		}
	}
	return parent, aliveCount <= 1
}

// randomAtoms draws up to eight atoms of arity 1 to 3 over up to six
// constants, so repeated terms, repeated atoms, cycles and guards all occur.
func randomAtoms(rng *rand.Rand) []logic.Atom {
	terms := 1 + rng.Intn(6)
	atoms := make([]logic.Atom, rng.Intn(9))
	for i := range atoms {
		args := make([]logic.Term, 1+rng.Intn(3))
		for k := range args {
			args[k] = c(fmt.Sprint(rng.Intn(terms)))
		}
		atoms[i] = logic.MustAtom(fmt.Sprintf("P%d", len(args)), args...)
	}
	return atoms
}

// TestBuildMatchesReference pins Build to the map-based ear removal on
// 5,000 random instances: the same verdict and, when acyclic, the same
// witness for every atom and a tree that Validate accepts. One Hypergraph,
// Reset between instances, must give the same verdicts, so its buffers
// carry nothing from one run to the next. Both verdicts must occur.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Hypergraph
	verdicts := map[bool]int{}
	for k := 0; k < 5000; k++ {
		atoms := randomAtoms(rng)
		want, wantOK := referenceBuild(atoms)
		tree, ok := Build(atoms)
		if ok != wantOK {
			t.Fatalf("%v: Build ok = %v, reference %v", atoms, ok, wantOK)
		}
		verdicts[ok]++
		if ok {
			got := make([]int, len(tree.Nodes))
			for i, n := range tree.Nodes {
				got[i] = n.Parent
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v: Build parents %v, reference %v", atoms, got, want)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("%v: %v", atoms, err)
			}
		}
		ids := map[logic.Term]int32{}
		for _, a := range atoms {
			for _, x := range a.Args {
				if _, seen := ids[x]; !seen {
					ids[x] = int32(len(ids))
				}
			}
		}
		h.Reset(len(ids))
		for _, a := range atoms {
			var vs []int32
			for _, x := range a.Args {
				vs = append(vs, ids[x])
			}
			h.AddEdge(vs)
		}
		if got := h.Acyclic(nil); got != wantOK {
			t.Fatalf("%v: reused Hypergraph reads acyclic = %v, reference %v", atoms, got, wantOK)
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: the instances must produce both answers", verdicts)
	}
}
