package acyclicity

import (
	"testing"
	"time"

	"airct/internal/logic"
	"airct/internal/tgds"
)

// referenceIsJointlyAcyclic is the round-based fixpoint IsJointlyAcyclic
// replaced, kept as the oracle for its worklist pass: every round rescans
// every frontier variable against every body argument, for each position
// it adds to Mov(z), and the dependency edges rescan them again per pair of
// existential variables.
func referenceIsJointlyAcyclic(set *tgds.Set) bool {
	type exVar struct {
		tgd int
		v   logic.Term
	}
	var exVars []exVar
	for i, t := range set.TGDs {
		for _, v := range t.ExistentialVars().Sorted() {
			exVars = append(exVars, exVar{tgd: i, v: v})
		}
	}
	if len(exVars) == 0 {
		return true
	}
	frontiers := make([][]logic.Term, len(set.TGDs))
	for i, t := range set.TGDs {
		frontiers[i] = t.Frontier().Sorted()
	}
	// allIn reports whether frontier variable x of t occurs in the body
	// and every body position it occurs at lies in m.
	allIn := func(t tgds.TGD, x logic.Term, m map[logic.Position]bool) bool {
		all, any := true, false
		for _, a := range t.Body {
			for i, v := range a.Args {
				if v == x {
					any = true
					if !m[logic.Position{Pred: a.Pred, Index: i + 1}] {
						all = false
					}
				}
			}
		}
		return any && all
	}
	mov := make([]map[logic.Position]bool, len(exVars))
	for k, ev := range exVars {
		m := make(map[logic.Position]bool)
		for _, h := range set.TGDs[ev.tgd].Head {
			for i, v := range h.Args {
				if v == ev.v {
					m[logic.Position{Pred: h.Pred, Index: i + 1}] = true
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for ti, t := range set.TGDs {
				for _, x := range frontiers[ti] {
					if !allIn(t, x, m) {
						continue
					}
					for _, h := range t.Head {
						for i, v := range h.Args {
							p := logic.Position{Pred: h.Pred, Index: i + 1}
							if v == x && !m[p] {
								m[p] = true
								changed = true
							}
						}
					}
				}
			}
		}
		mov[k] = m
	}
	adj := make([][]int, len(exVars))
	for from := range exVars {
		for to, ev := range exVars {
			for _, x := range frontiers[ev.tgd] {
				if allIn(set.TGDs[ev.tgd], x, mov[from]) {
					adj[from] = append(adj[from], to)
					break
				}
			}
		}
	}
	color := make([]int, len(exVars))
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = 1
		for _, u := range adj[v] {
			if color[u] == 1 || (color[u] == 0 && !dfs(u)) {
				return false
			}
		}
		color[v] = 2
		return true
	}
	for v := range exVars {
		if color[v] == 0 && !dfs(v) {
			return false
		}
	}
	return true
}

// TestJointAcyclicityMatchesReference pins the worklist pass on the
// compiled set to the round-based fixpoint on the sweep sets
// (forEachSweepSet) and the worst cases. Both verdicts must occur among
// the random sets.
func TestJointAcyclicityMatchesReference(t *testing.T) {
	verdicts := map[bool]int{}
	forEachSweepSet(t, func(name string, s *tgds.Set, random bool) {
		got, want := IsJointlyAcyclic(s), referenceIsJointlyAcyclic(s)
		if got != want {
			t.Fatalf("%s: IsJointlyAcyclic = %v, reference %v", name, got, want)
		}
		if random {
			verdicts[got]++
		}
	})
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("random verdicts %v: the sweep must see both answers", verdicts)
	}
	// The worst cases' known answers: only the chain is jointly acyclic.
	for _, wc := range worstCases(t) {
		got := IsJointlyAcyclic(wc.set)
		if want := wc.name == "existential-chain-4000"; got != want {
			t.Errorf("%s: IsJointlyAcyclic = %v, want %v", wc.name, got, want)
		}
		if !slowReferences() {
			if want := referenceIsJointlyAcyclic(wc.set); got != want {
				t.Errorf("%s: IsJointlyAcyclic = %v, reference %v", wc.name, got, want)
			}
		}
	}
}

// TestJointAcyclicityWidestShift: the 1023-ary shift is not jointly
// acyclic (its null moves through every position back into the frontier),
// and the answer takes well under a second. The round-based fixpoint took
// seconds here: each of its 1023 rounds rescanned 1022 frontier variables
// against 1023 body arguments.
func TestJointAcyclicityWidestShift(t *testing.T) {
	s := widestShift(t)
	start := time.Now()
	ja := IsJointlyAcyclic(s)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("IsJointlyAcyclic took %v on the 1023-ary shift, want under 1s", elapsed)
	}
	if ja {
		t.Error("the 1023-ary shift reads jointly acyclic")
	}
}
