package logic

import (
	"testing"
	"testing/quick"
)

func source(atoms ...Atom) *SliceSource { return NewSliceSource(atoms) }

func TestFindHomomorphismSimple(t *testing.T) {
	src := source(
		MustAtom("R", Const("a"), Const("b")),
		MustAtom("R", Const("b"), Const("c")),
	)
	pattern := []Atom{MustAtom("R", Var("X"), Var("Y")), MustAtom("R", Var("Y"), Var("Z"))}
	h := FindHomomorphism(pattern, nil, src)
	if h == nil {
		t.Fatal("expected a homomorphism")
	}
	if h.ApplyTerm(Var("X")) != Const("a") || h.ApplyTerm(Var("Y")) != Const("b") || h.ApplyTerm(Var("Z")) != Const("c") {
		t.Errorf("unexpected hom %v", h)
	}
}

func TestFindHomomorphismNone(t *testing.T) {
	src := source(MustAtom("R", Const("a"), Const("b")))
	pattern := []Atom{MustAtom("R", Var("X"), Var("X"))}
	if h := FindHomomorphism(pattern, nil, src); h != nil {
		t.Fatalf("expected none, got %v", h)
	}
	if HasHomomorphism(pattern, nil, src) {
		t.Error("HasHomomorphism should agree")
	}
}

func TestHomomorphismRespectsConstants(t *testing.T) {
	src := source(MustAtom("R", Const("a"), Const("b")))
	pattern := []Atom{MustAtom("R", Const("b"), Var("Y"))}
	if FindHomomorphism(pattern, nil, src) != nil {
		t.Error("constants must match exactly")
	}
	pattern = []Atom{MustAtom("R", Const("a"), Var("Y"))}
	if FindHomomorphism(pattern, nil, src) == nil {
		t.Error("matching constant should succeed")
	}
}

func TestHomomorphismMapsNulls(t *testing.T) {
	// Nulls in the pattern behave like variables (paper: homomorphisms fix
	// only constants).
	src := source(MustAtom("R", Const("a"), Const("b")))
	pattern := []Atom{MustAtom("R", NewNull("n"), Const("b"))}
	h := FindHomomorphism(pattern, nil, src)
	if h == nil || h.ApplyTerm(NewNull("n")) != Const("a") {
		t.Fatalf("null should map to a: %v", h)
	}
}

func TestHomomorphismWithBase(t *testing.T) {
	src := source(
		MustAtom("R", Const("a"), Const("b")),
		MustAtom("R", Const("c"), Const("b")),
	)
	base := NewSubstitution().Bind(Var("X"), Const("c"))
	h := FindHomomorphism([]Atom{MustAtom("R", Var("X"), Var("Y"))}, base, src)
	if h == nil || h.ApplyTerm(Var("X")) != Const("c") {
		t.Fatalf("base not respected: %v", h)
	}
	base2 := NewSubstitution().Bind(Var("X"), Const("z"))
	if FindHomomorphism([]Atom{MustAtom("R", Var("X"), Var("Y"))}, base2, src) != nil {
		t.Error("unsatisfiable base should fail")
	}
	if len(base2) != 1 {
		t.Error("base must not be mutated")
	}
}

func TestAllHomomorphismsCount(t *testing.T) {
	src := source(
		MustAtom("E", Const("1"), Const("2")),
		MustAtom("E", Const("2"), Const("3")),
		MustAtom("E", Const("3"), Const("1")),
	)
	// Triangle: paths of length 2 = 3 homomorphisms.
	pattern := []Atom{MustAtom("E", Var("X"), Var("Y")), MustAtom("E", Var("Y"), Var("Z"))}
	homs := AllHomomorphisms(pattern, nil, src)
	if len(homs) != 3 {
		t.Fatalf("got %d homs, want 3", len(homs))
	}
	seen := map[string]bool{}
	for _, h := range homs {
		if seen[h.Key()] {
			t.Fatalf("duplicate hom %v", h)
		}
		seen[h.Key()] = true
	}
}

func TestForEachHomomorphismEarlyStop(t *testing.T) {
	src := source(
		MustAtom("E", Const("1"), Const("2")),
		MustAtom("E", Const("2"), Const("3")),
		MustAtom("E", Const("3"), Const("1")),
	)
	count := 0
	ForEachHomomorphism([]Atom{MustAtom("E", Var("X"), Var("Y"))}, nil, src, func(Substitution) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop failed: %d calls", count)
	}
}

func TestRenameApartAndFreeze(t *testing.T) {
	atoms := []Atom{MustAtom("R", Var("X"), Var("Y")), MustAtom("S", Var("Y"), Const("a"))}
	frozen, frz := CanonicalFreeze(atoms, NewFreshNamer("f"))
	if len(frz) != 2 {
		t.Fatalf("freeze = %v", frz)
	}
	for _, a := range frozen {
		if !a.IsFact() {
			t.Errorf("frozen atom %v is not a fact", a)
		}
	}
	if frozen[1].Args[1] != Const("a") {
		t.Error("constants must survive freezing")
	}
	if frozen[0].Args[1] != frozen[1].Args[0] {
		t.Error("shared variable broken by freezing")
	}
}

// Property: any hom found maps every pattern atom into the source.
func TestHomomorphismSoundness(t *testing.T) {
	f := func(seed uint8) bool {
		// Build a small random-ish source from the seed.
		names := []string{"a", "b", "c"}
		var atoms []Atom
		for i := 0; i < 5; i++ {
			x := names[(int(seed)+i)%3]
			y := names[(int(seed)+2*i+1)%3]
			atoms = append(atoms, MustAtom("E", Const(x), Const(y)))
		}
		src := NewSliceSource(atoms)
		pattern := []Atom{MustAtom("E", Var("X"), Var("Y")), MustAtom("E", Var("Y"), Var("X"))}
		present := make(map[string]bool)
		for _, a := range atoms {
			present[a.Key()] = true
		}
		sound := true
		ForEachHomomorphism(pattern, nil, src, func(h Substitution) bool {
			for _, p := range pattern {
				if !present[p.Apply(h).Key()] {
					sound = false
					return false
				}
			}
			return true
		})
		return sound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
