package tgds

import (
	"testing"

	"airct/internal/logic"
)

// The two example sets from Section 2 of the paper.

// paperStickySet: T(x,y,z) → ∃w S(y,w); R(x,y), P(y,z) → ∃w T(x,y,w).
func paperStickySet() *Set {
	return MustSet(
		MustNew("a", []logic.Atom{atom("T", "X", "Y", "Z")}, []logic.Atom{atom("S", "Y", "W")}),
		MustNew("b", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")},
			[]logic.Atom{atom("T", "X", "Y", "W")}),
	)
}

// paperNonStickySet: T(x,y,z) → ∃w S(x,w); R(x,y), P(y,z) → ∃w T(x,y,w).
func paperNonStickySet() *Set {
	return MustSet(
		MustNew("a", []logic.Atom{atom("T", "X", "Y", "Z")}, []logic.Atom{atom("S", "X", "W")}),
		MustNew("b", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")},
			[]logic.Atom{atom("T", "X", "Y", "W")}),
	)
}

func TestPaperStickyExample(t *testing.T) {
	ok, _, err := IsSticky(paperStickySet())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("first set of Section 2 must be sticky")
	}
}

func TestPaperNonStickyExample(t *testing.T) {
	s := paperNonStickySet()
	ok, m, err := IsSticky(s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("second set of Section 2 must not be sticky")
	}
	v := m.Violation()
	if v == nil {
		t.Fatal("violation expected")
	}
	// The violating TGD is σb: its join variable (second arg of R = first
	// arg of P) is marked and occurs twice.
	if v.TGD.Label != "b" {
		t.Errorf("violating TGD = %s, want b", v.TGD.Label)
	}
	if v.TGD.Body[0].Args[1] != v.Var {
		t.Errorf("violating var = %v, want the join variable %v", v.Var, v.TGD.Body[0].Args[1])
	}
	if v.Error() == "" {
		t.Error("violation must render")
	}
}

func TestMarkingBaseStep(t *testing.T) {
	// R(X,Y) -> S(X): Y does not occur in the head, so Y is marked; X is not.
	s := MustSet(MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("S", "X")}))
	m, err := ComputeMarking(s)
	if err != nil {
		t.Fatal(err)
	}
	tgd := s.TGDs[0]
	x, y := tgd.Body[0].Args[0], tgd.Body[0].Args[1]
	if m.IsMarked(x) {
		t.Error("X occurs in head, must not be base-marked")
	}
	if !m.IsMarked(y) {
		t.Error("Y absent from head, must be marked")
	}
	if got := m.MarkedVars(); len(got) != 1 {
		t.Errorf("MarkedVars = %v", got)
	}
}

func TestMarkingPropagation(t *testing.T) {
	// σ1: S(X) -> R(X,W)    (W existential)
	// σ2: R(X,Y) -> P(Y)    (X not in head: X marked in σ2)
	// Propagation: in σ1, X occurs in head R at position 1; σ2 has body atom
	// R(X,Y) whose position-1 variable (X of σ2) is marked, so X of σ1
	// becomes marked.
	s := MustSet(
		MustNew("1", []logic.Atom{atom("S", "X")}, []logic.Atom{atom("R", "X", "W")}),
		MustNew("2", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("P", "Y")}),
	)
	m, err := ComputeMarking(s)
	if err != nil {
		t.Fatal(err)
	}
	x1 := s.TGDs[0].Body[0].Args[0]
	x2 := s.TGDs[1].Body[0].Args[0]
	if !m.IsMarked(x2) {
		t.Error("X of σ2 must be base-marked")
	}
	if !m.IsMarked(x1) {
		t.Error("X of σ1 must be propagation-marked")
	}
}

func TestMarkingRejectsMultiHead(t *testing.T) {
	s := MustSet(MustNew("", []logic.Atom{atom("R", "X")},
		[]logic.Atom{atom("S", "X"), atom("T", "X")}))
	if _, err := ComputeMarking(s); err == nil {
		t.Error("multi-head must be rejected")
	}
	if _, _, err := IsSticky(s); err == nil {
		t.Error("IsSticky must propagate the error")
	}
	if s.IsSticky() {
		t.Error("Set.IsSticky must be false for multi-head")
	}
}

func TestLinearSetsAreSticky(t *testing.T) {
	// Every linear set is sticky: marked variables can occur at most once in
	// a single-atom body only if repeated variables are unmarked — not true
	// in general! A marked variable can repeat inside the single body atom:
	// R(X,X) -> S(X) is linear and sticky (X occurs in head, unmarked until
	// propagation). But R(X,X) -> T is trickier; verify a concrete pair.
	s := MustSet(
		MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("R", "Y", "Z")}),
	)
	if !s.IsSticky() {
		t.Error("R(X,Y)->∃Z R(Y,Z) must be sticky")
	}
	// Linear but NOT sticky: repeated marked variable in the body.
	s2 := MustSet(
		MustNew("", []logic.Atom{atom("R", "X", "X")}, []logic.Atom{atom("S", "Q", "Q")}),
	)
	if s2.IsSticky() {
		t.Error("R(X,X)->S(Q,Q): X is marked (not in head) and occurs twice; not sticky")
	}
}

func TestImmortalHeadPositions(t *testing.T) {
	// σ: R(X,Y) -> R(Y,Z). Y is frontier; is it marked? Y occurs in head at
	// position 1; body atom R has position-1 variable X, and X is marked
	// (not in head). So Y is marked, and no position is immortal except
	// those holding unmarked frontier vars.
	s := MustSet(
		MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("R", "Y", "Z")}),
	)
	m, err := ComputeMarking(s)
	if err != nil {
		t.Fatal(err)
	}
	tgd := s.TGDs[0]
	// Position 2 of the head holds the existential Z: never immortal.
	if m.ImmortalHeadPosition(tgd, 2) {
		t.Error("existential position must not be immortal")
	}
	// Position 1 holds Y, which is marked via X; not immortal.
	if m.ImmortalHeadPosition(tgd, 1) {
		t.Error("marked frontier position must not be immortal")
	}

	// σ: P(X,Y) -> Q(X): X stays forever (no body atom Q at all, so X is
	// unmarked) — position 1 of the head is immortal.
	s2 := MustSet(
		MustNew("", []logic.Atom{atom("P", "X", "Y")}, []logic.Atom{atom("Q", "X")}),
	)
	m2, err := ComputeMarking(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.ImmortalHeadPosition(s2.TGDs[0], 1) {
		t.Error("unmarked frontier position must be immortal")
	}
}

func TestStickinessOfGuardedExample(t *testing.T) {
	// The guarded set of Example 3.2 is also sticky (no joins at all).
	s := MustSet(
		MustNew("σ1", []logic.Atom{atom("P", "X", "Y")}, []logic.Atom{atom("R", "X", "Y")}),
		MustNew("σ2", []logic.Atom{atom("P", "X", "Y")}, []logic.Atom{atom("S", "X")}),
		MustNew("σ3", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("S", "X")}),
		MustNew("σ4", []logic.Atom{atom("S", "X")}, []logic.Atom{atom("R", "X", "Y")}),
	)
	if !s.IsSticky() {
		t.Error("join-free sets are sticky")
	}
	if !s.IsGuarded() {
		t.Error("Example 3.2 set is guarded")
	}
}

func TestMarkingIsMemoised(t *testing.T) {
	s := MustSet(
		MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("R", "Y", "Z")}),
	)
	m1, err := s.Marking()
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := s.Marking()
	_, m3, _ := IsSticky(s)
	if m1 != m2 || m1 != m3 {
		t.Error("Marking and IsSticky must return one memoised marking")
	}
	fresh, _ := ComputeMarking(s)
	if got, want := m1.MarkedVars(), fresh.MarkedVars(); len(got) != len(want) {
		t.Errorf("memoised marking %v, fresh %v", got, want)
	}
	multi := MustSet(MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("R", "Y", "Z"), atom("S", "Y")}))
	if _, err := multi.Marking(); err == nil {
		t.Error("a multi-head set has no stickiness marking")
	}
}
