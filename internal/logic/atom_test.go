package logic

import (
	"strings"
	"testing"
)

func TestPredicateAndPosition(t *testing.T) {
	p := Pred("R", 2)
	if p.String() != "R/2" {
		t.Errorf("Predicate.String = %q", p.String())
	}
	pos := Position{Pred: p, Index: 1}
	if pos.String() != "(R/2,1)" {
		t.Errorf("Position.String = %q", pos.String())
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(Pred("R", 2), Pred("S", 3), Pred("A", 1))
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	preds := s.Predicates()
	if len(preds) != 3 || preds[0].Name != "A" || preds[1].Name != "R" || preds[2].Name != "S" {
		t.Errorf("Predicates order = %v", preds)
	}
	s.Add(Pred("T", 1))
	if s.Len() != 4 {
		t.Error("Add failed")
	}
}

func TestAtomBasics(t *testing.T) {
	a := NewAtom(Pred("R", 3), Const("a"), Var("X"), Var("X"))
	if a.String() != "R(a,X,X)" {
		t.Errorf("String = %q", a.String())
	}
	if a.Arg(1) != Const("a") || a.Arg(2) != Var("X") {
		t.Error("Arg mismatch")
	}
	if a.IsFact() {
		t.Error("atom with variables is not a fact")
	}
	if a.IsGround() {
		t.Error("atom with variables is not ground")
	}
	if !NewAtom(Pred("R", 2), Const("a"), NewNull("n")).IsGround() {
		t.Error("constants+nulls should be ground")
	}
	if !NewAtom(Pred("R", 1), Const("a")).IsFact() {
		t.Error("all-constant atom is a fact")
	}
	if got := a.PositionsOf(Var("X")); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("PositionsOf = %v", got)
	}
	if !a.HasTerm(Const("a")) || a.HasTerm(Const("b")) {
		t.Error("HasTerm mismatch")
	}
	terms := a.Terms()
	if len(terms) != 2 {
		t.Errorf("Terms = %v", terms)
	}
}

func TestNewAtomPanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAtom(Pred("R", 2), Const("a"))
}

func TestAtomKeyDistinguishesKinds(t *testing.T) {
	a := MustAtom("R", Const("x"))
	b := MustAtom("R", Var("x"))
	c := MustAtom("R", NewNull("x"))
	keys := map[string]bool{a.Key(): true, b.Key(): true, c.Key(): true}
	if len(keys) != 3 {
		t.Errorf("keys should be pairwise distinct: %v %v %v", a.Key(), b.Key(), c.Key())
	}
	if a.Key() != MustAtom("R", Const("x")).Key() {
		t.Error("equal atoms must share keys")
	}
}

func TestAtomEqualCloneApply(t *testing.T) {
	a := MustAtom("R", Const("a"), Var("X"))
	if !a.Equal(MustAtom("R", Const("a"), Var("X"))) {
		t.Fatal("equal atoms must be Equal")
	}
	if a.Equal(MustAtom("R", Const("a"), Const("c"))) {
		t.Fatal("different arguments must not be Equal")
	}
	s := NewSubstitution().Bind(Var("X"), Const("b"))
	applied := a.Apply(s)
	if applied.String() != "R(a,b)" {
		t.Errorf("Apply = %v", applied)
	}
	if a.String() != "R(a,X)" {
		t.Error("Apply must not mutate receiver")
	}
	if a.Equal(MustAtom("S", Const("a"), Var("X"))) {
		t.Error("different predicates must not be Equal")
	}
}

func TestAtomsHelpers(t *testing.T) {
	atoms := []Atom{
		MustAtom("R", Const("a"), Var("X")),
		MustAtom("S", Var("X"), Var("Y"), NewNull("n")),
	}
	if got := AtomsString(atoms); got != "R(a,X), S(X,Y,_:n)" {
		t.Errorf("AtomsString = %q", got)
	}
	terms := TermsOf(atoms)
	if len(terms) != 4 {
		t.Errorf("TermsOf = %v", terms)
	}
	vars := VarsOf(atoms)
	if len(vars) != 2 || !vars.Has(Var("X")) || !vars.Has(Var("Y")) {
		t.Errorf("VarsOf = %v", vars)
	}
	shuffled := []Atom{atoms[1], atoms[0]}
	SortAtoms(shuffled)
	if !strings.HasPrefix(shuffled[0].String(), "R(") {
		t.Errorf("SortAtoms order = %v", shuffled)
	}
}
