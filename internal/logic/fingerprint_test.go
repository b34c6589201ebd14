package logic

import (
	"math/rand"
	"testing"
)

func TestHashAtomAgreesWithInternerPath(t *testing.T) {
	in := NewInterner()
	atoms := []Atom{
		NewAtom(Pred("R", 2), Const("a"), Const("b")),
		NewAtom(Pred("R", 2), Const("b"), Const("a")),
		NewAtom(Pred("S", 1), NewNull("n0")),
		NewAtom(Pred("R", 3), Const("a"), NewNull("n0"), Const("a")),
	}
	for _, a := range atoms {
		pid := in.InternPred(a.Pred)
		args := make([]uint32, len(a.Args))
		for i, tm := range a.Args {
			args[i] = uint32(in.InternTerm(tm))
		}
		if got, want := in.HashAtomIDs(pid, args), HashAtom(a); got != want {
			t.Errorf("HashAtomIDs(%v) = %v, HashAtom = %v", a, got, want)
		}
	}
}

func TestHashAtomDistinguishes(t *testing.T) {
	// Same multiset of arguments in different positions, same name across
	// kinds, same name across arities: all must hash apart.
	pairs := [][2]Atom{
		{NewAtom(Pred("R", 2), Const("a"), Const("b")), NewAtom(Pred("R", 2), Const("b"), Const("a"))},
		{NewAtom(Pred("R", 1), Const("a")), NewAtom(Pred("R", 1), NewNull("a"))},
		{NewAtom(Pred("R", 1), Const("a")), NewAtom(Pred("S", 1), Const("a"))},
		{NewAtom(Pred("R", 2), Const("a"), Const("a")), NewAtom(Pred("R", 1), Const("a"))},
	}
	for _, p := range pairs {
		if HashAtom(p[0]) == HashAtom(p[1]) {
			t.Errorf("HashAtom(%v) == HashAtom(%v)", p[0], p[1])
		}
	}
}

func TestFingerprintMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a := Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}
		b := Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}
		c := Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}
		if a.Merge(b) != b.Merge(a) {
			t.Fatalf("Merge not commutative: %v vs %v", a, b)
		}
		if a.Merge(b).Merge(c) != a.Merge(b.Merge(c)) {
			t.Fatalf("Merge not associative")
		}
	}
}

func TestFingerprintMixIsOrderSensitive(t *testing.T) {
	a, b := HashTerm(Const("a")), HashTerm(Const("b"))
	var zero Fingerprint
	if zero.Mix(a).Mix(b) == zero.Mix(b).Mix(a) {
		t.Error("Mix must depend on order")
	}
}

func TestFingerprintAtomsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	atoms := []Atom{
		NewAtom(Pred("R", 2), Const("a"), Const("b")),
		NewAtom(Pred("R", 2), Const("b"), NewNull("n1")),
		NewAtom(Pred("S", 1), Const("c")),
		NewAtom(Pred("T", 3), NewNull("n1"), Const("a"), NewNull("n2")),
	}
	want := FingerprintAtoms(atoms)
	for i := 0; i < 20; i++ {
		shuffled := append([]Atom(nil), atoms...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := FingerprintAtoms(shuffled); got != want {
			t.Fatalf("fingerprint depends on order: %v vs %v", got, want)
		}
	}
}
