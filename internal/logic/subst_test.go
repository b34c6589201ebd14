package logic

import (
	"testing"
	"testing/quick"
)

func TestSubstitutionBindLookupApply(t *testing.T) {
	s := NewSubstitution()
	s.Bind(Var("X"), Const("a"))
	if got, ok := s[Var("X")]; !ok || got != Const("a") {
		t.Fatalf("Lookup = %v,%v", got, ok)
	}
	if _, ok := s[Var("Y")]; ok {
		t.Fatal("unexpected binding")
	}
	if s.ApplyTerm(Var("X")) != Const("a") || s.ApplyTerm(Var("Y")) != Var("Y") {
		t.Fatal("ApplyTerm mismatch")
	}
	// Rebinding to the same value is fine.
	s.Bind(Var("X"), Const("a"))
	// Rebinding to a different value panics.
	defer func() {
		if recover() == nil {
			t.Fatal("expected rebinding panic")
		}
	}()
	s.Bind(Var("X"), Const("b"))
}

func TestSubstitutionRestrictCloneExtends(t *testing.T) {
	s := NewSubstitution()
	s.Bind(Var("X"), Const("a"))
	s.Bind(Var("Y"), Const("b"))
	r := s.Restrict(NewTermSet(Var("X")))
	if len(r) != 1 || r.ApplyTerm(Var("X")) != Const("a") {
		t.Fatalf("Restrict = %v", r)
	}
	c := s.Clone()
	c.Bind(Var("Z"), Const("c"))
	if _, ok := s[Var("Z")]; ok {
		t.Error("Clone must be independent")
	}
}

func TestSubstitutionKeyAndEqual(t *testing.T) {
	a := NewSubstitution().Bind(Var("X"), Const("a")).Bind(Var("Y"), NewNull("n"))
	b := NewSubstitution().Bind(Var("Y"), NewNull("n")).Bind(Var("X"), Const("a"))
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := NewSubstitution().Bind(Var("X"), Const("a"))
	if a.Key() == c.Key() {
		t.Error("different substitutions must differ")
	}
	// Null vs constant image must produce different keys.
	d := NewSubstitution().Bind(Var("X"), Const("n"))
	e := NewSubstitution().Bind(Var("X"), NewNull("n"))
	if d.Key() == e.Key() {
		t.Error("term kind must be reflected in key")
	}
}

// Property: ApplyAtoms distributes over atom lists and commutes with Clone.
func TestApplyAtomsProperty(t *testing.T) {
	f := func(names []string) bool {
		if len(names) == 0 {
			return true
		}
		s := NewSubstitution().Bind(Var("X"), Const("a"))
		atoms := make([]Atom, 0, len(names))
		for _, n := range names {
			if n == "" {
				n = "p"
			}
			atoms = append(atoms, MustAtom("P", Var("X"), Const(n)))
		}
		out := s.ApplyAtoms(atoms)
		for i := range out {
			if out[i].Args[0] != Const("a") || out[i].Args[1] != atoms[i].Args[1] {
				return false
			}
		}
		return len(out) == len(atoms)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
