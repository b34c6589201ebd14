package tgds_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// referenceMarking is the round-based fixpoint ComputeMarking replaced,
// kept as the oracle for its worklist pass: every round rescans every body
// variable of every TGD and, for each unmarked one that occurs in its head,
// scans every body atom of every TGD for one that propagates the mark.
func referenceMarking(s *tgds.Set) logic.TermSet {
	marked := make(logic.TermSet)
	for _, t := range s.TGDs {
		headVars := t.HeadVars()
		for v := range t.BodyVars() {
			if !headVars.Has(v) {
				marked[v] = struct{}{}
			}
		}
	}
	propagates := func(pred logic.Predicate, positions []int) bool {
		for _, t := range s.TGDs {
			for _, a := range t.Body {
				if a.Pred != pred {
					continue
				}
				all := true
				for _, i := range positions {
					if !marked.Has(a.Arg(i)) {
						all = false
						break
					}
				}
				if all {
					return true
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, t := range s.TGDs {
			head := t.HeadAtom()
			for v := range t.BodyVars() {
				if marked.Has(v) || !head.HasTerm(v) {
					continue
				}
				if propagates(head.Pred, head.PositionsOf(v)) {
					marked[v] = struct{}{}
					changed = true
				}
			}
		}
	}
	return marked
}

// referenceViolation is Marking.Violation over the reference marking: the
// first TGD, in set order, whose body holds a marked variable twice, and
// its least such variable.
func referenceViolation(s *tgds.Set, marked logic.TermSet) *tgds.StickyViolation {
	for _, t := range s.TGDs {
		counts := make(map[logic.Term]int)
		for _, a := range t.Body {
			for _, term := range a.Args {
				if term.IsVar() {
					counts[term]++
				}
			}
		}
		for _, v := range logic.VarsOf(t.Body).Sorted() {
			if counts[v] > 1 && marked.Has(v) {
				return &tgds.StickyViolation{TGD: t, Var: v}
			}
		}
	}
	return nil
}

// TestMarkingMatchesReference pins the worklist marking on the compiled
// set to the round-based fixpoint on the corpus, the seven families at
// n = 2..12, the three random generators at seeds 0–1999
// (RandomExistentialProgram, RandomTGDSet with the default options, and
// RandomTGDSet with three rules and a 60% existential bias) and three worst
// cases. The marked sets and the violations must agree, and
// both sticky and non-sticky sets must occur among the random ones.
func TestMarkingMatchesReference(t *testing.T) {
	sticky := map[bool]int{}
	check := func(name string, s *tgds.Set) {
		t.Helper()
		m, err := tgds.ComputeMarking(s)
		if err != nil {
			return // multi-head: no marking on either side
		}
		want := referenceMarking(s)
		if got := m.MarkedVars(); !slices.Equal(got, want.Sorted()) {
			t.Fatalf("%s: marked %v, reference %v", name, got, want.Sorted())
		}
		got, wantV := m.Violation(), referenceViolation(s, want)
		if (got == nil) != (wantV == nil) || got != nil && (got.TGD.Label != wantV.TGD.Label || got.Var != wantV.Var) {
			t.Fatalf("%s: violation %v, reference %v", name, got, wantV)
		}
		sticky[got == nil]++
	}
	for _, l := range workload.Corpus() {
		check(l.Name, l.Set)
	}
	for _, fam := range []func(int) workload.Labeled{
		workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle,
		workload.SwapIntro, workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
	} {
		for n := 2; n <= 12; n++ {
			l := fam(n)
			check(l.Name, l.Set)
		}
	}
	for seed := int64(0); seed < 2000; seed++ {
		check(fmt.Sprintf("RandomExistentialProgram(%d)", seed), workload.RandomExistentialProgram(seed).TGDs)
		check(fmt.Sprintf("RandomTGDSet(%d)", seed), workload.RandomTGDSet(seed, workload.RandomOptions{}))
		check(fmt.Sprintf("RandomTGDSet(%d, biased)", seed), workload.RandomTGDSet(seed, workload.RandomOptions{Rules: 3, ExistentialBias: 60}))
	}
	if sticky[true] == 0 || sticky[false] == 0 {
		t.Errorf("stickiness counts %v: the sweep must see both answers", sticky)
	}
	// The worst cases: the linear sticky cycle at n = 2,000, the 1023-ary
	// shift and ExistentialChain(4000).
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "P%d(X,Y) -> P%d(Y,Z).\n", i, i+1)
	}
	b.WriteString("P2000(X,Y) -> P0(Y,Z).\n")
	cycle, err := parser.ParseTGDs(b.String())
	if err != nil {
		t.Fatal(err)
	}
	check("sticky-cycle-2000", cycle)
	check("shift-1023", widestShift(t))
	check("existential-chain-4000", workload.ExistentialChain(4000).Set)
}

// widestShift is the 1023-ary shift R(X1,…,X1023) -> R(X2,…,X1023,Y), the
// widest rule the parser admits.
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
	s, err := parser.ParseTGDs(fmt.Sprintf("R(%s) -> R(%s).", strings.Join(body, ","), strings.Join(head, ",")))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMarkingWidestShift: the 1023-ary shift R(X1,…,X1023) ->
// R(X2,…,X1023,Y), the widest rule the parser admits, marks every body
// variable (X1 by rule 1, then each Xk from X(k-1) one position left of
// it), and the marking takes well under a second. The round-based fixpoint
// took seconds here: each of its 1023 rounds marked one variable and
// rescanned every body variable against the body.
func TestMarkingWidestShift(t *testing.T) {
	s := widestShift(t)
	start := time.Now()
	m, err := tgds.ComputeMarking(s)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("ComputeMarking took %v on the 1023-ary shift, want under 1s", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.MarkedVars()); got != 1023 {
		t.Errorf("%d variables marked on the 1023-ary shift, want all 1023", got)
	}
	if m.Violation() != nil {
		t.Errorf("the 1023-ary shift reads not sticky: %v", m.Violation())
	}
}
