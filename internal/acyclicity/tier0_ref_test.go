package acyclicity

import (
	"slices"
	"testing"
	"time"

	"airct/internal/tgds"
	"airct/internal/workload"
)

// TestWeakAcyclicityMatchesReference pins the one SCC pass to the DFS per
// special edge on the sweep sets (forEachSweepSet) and the worst cases.
// Both verdicts must occur among the random sets.
func TestWeakAcyclicityMatchesReference(t *testing.T) {
	verdicts := map[bool]int{}
	forEachSweepSet(t, func(name string, s *tgds.Set, random bool) {
		got, want := IsWeaklyAcyclic(s), referenceIsWeaklyAcyclic(s)
		if got != want {
			t.Fatalf("%s: IsWeaklyAcyclic = %v, reference %v", name, got, want)
		}
		if random {
			verdicts[got]++
		}
	})
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("random verdicts %v: the sweep must see both answers", verdicts)
	}
	for _, wc := range worstCases(t) {
		if wc.name == "existential-chain-4000" && slowReferences() {
			continue // TestWeakAcyclicityExistentialChain checks its answer
		}
		if got, want := IsWeaklyAcyclic(wc.set), referenceIsWeaklyAcyclic(wc.set); got != want {
			t.Errorf("%s: IsWeaklyAcyclic = %v, reference %v", wc.name, got, want)
		}
	}
}

// TestWeakAcyclicityExistentialChain: ExistentialChain(4000), 188 KB of
// rules, is weakly acyclic, and the answer takes well under a second. The
// DFS per special edge took about 9 s here: 4,000 special edges, each a
// search of a 16,000-position graph.
func TestWeakAcyclicityExistentialChain(t *testing.T) {
	s := workload.ExistentialChain(4000).Set
	start := time.Now()
	wa := IsWeaklyAcyclic(s)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("IsWeaklyAcyclic took %v on ExistentialChain(4000), want under 1s", elapsed)
	}
	if !wa {
		t.Error("ExistentialChain(4000) reads not weakly acyclic")
	}
}

// TestNeverFiringMatchesReference pins the slot-based prune to the
// map-based fold on the sweep sets and the worst cases: the removed
// indexes agree, and the remainder reads the same under the portfolio's
// checks (empty, full, weakly and jointly acyclic) as the reference
// remainder under the reference checks. Both a removal and a kept TGD must
// occur among the random sets.
func TestNeverFiringMatchesReference(t *testing.T) {
	// check returns how many TGDs the prune removed.
	check := func(name string, s *tgds.Set, slowJA bool) int {
		got, want := NeverFiring(s), referenceNeverFiring(s)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: NeverFiring = %v, reference %v", name, got, want)
		}
		rest, idx := PruneNeverFiring(s)
		if !slices.Equal(idx, want) {
			t.Fatalf("%s: PruneNeverFiring removed %v, reference %v", name, idx, want)
		}
		var keep []tgds.TGD
		for i, tgd := range s.TGDs {
			if !slices.Contains(want, i) {
				keep = append(keep, tgd)
			}
		}
		if (rest == nil) != (len(keep) == 0) {
			t.Fatalf("%s: remainder %v, reference keeps %d TGDs", name, rest, len(keep))
		}
		if rest == nil || len(want) == 0 {
			return len(got)
		}
		ref := tgds.MustSet(keep...)
		if rest.String() != ref.String() {
			t.Fatalf("%s: remainder\n%v\nreference\n%v", name, rest, ref)
		}
		if rest.IsFull() != ref.IsFull() || IsWeaklyAcyclic(rest) != referenceIsWeaklyAcyclic(ref) ||
			!slowJA && IsJointlyAcyclic(rest) != referenceIsJointlyAcyclic(ref) {
			t.Fatalf("%s: the remainder's checks differ from the reference's", name)
		}
		return len(got)
	}
	randomRemoved, randomKept := 0, 0
	forEachSweepSet(t, func(name string, s *tgds.Set, random bool) {
		n := check(name, s, false)
		if random {
			randomRemoved += n
			randomKept += s.Len() - n
		}
	})
	if randomRemoved == 0 || randomKept == 0 {
		t.Errorf("the random sets lost %d TGDs and kept %d: the sweep must see both", randomRemoved, randomKept)
	}
	for _, wc := range worstCases(t) {
		check(wc.name, wc.set, slowReferences())
	}
}
