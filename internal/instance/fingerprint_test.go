package instance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"airct/internal/logic"
)

// fingerprint folds the interner's atom hashes over the instance's
// identity tuples: the order-independent set fingerprint the ∀∃ search
// keeps per state.
func fingerprint(in *Instance) logic.Fingerprint {
	var fp logic.Fingerprint
	for i := int32(0); i < int32(in.Len()); i++ {
		fp = fp.Merge(in.Interner().HashAtomIDs(in.AtomPredID(i), in.AtomArgIDs(i)))
	}
	return fp
}

// randomAtoms returns n distinct random ground atoms over a small schema.
func randomAtoms(rng *rand.Rand, n int) []logic.Atom {
	seen := make(map[string]bool)
	var out []logic.Atom
	for len(out) < n {
		pred := logic.Pred(fmt.Sprintf("P%d", rng.Intn(4)), 1+rng.Intn(3))
		args := make([]logic.Term, pred.Arity)
		for i := range args {
			if rng.Intn(4) == 0 {
				args[i] = logic.NewNull(fmt.Sprintf("n%d", rng.Intn(6)))
			} else {
				args[i] = logic.Const(fmt.Sprintf("c%d", rng.Intn(8)))
			}
		}
		a := logic.NewAtom(pred, args...)
		if seen[a.Key()] {
			continue
		}
		seen[a.Key()] = true
		out = append(out, a)
	}
	return out
}

func TestFingerprintInsertionOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		atoms := randomAtoms(rng, 3+rng.Intn(20))
		want := fingerprint(FromAtoms(atoms...))
		if want != logic.FingerprintAtoms(atoms) {
			t.Fatalf("trial %d: interner fold disagrees with batch FingerprintAtoms", trial)
		}
		for shuffle := 0; shuffle < 5; shuffle++ {
			perm := append([]logic.Atom(nil), atoms...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := fingerprint(FromAtoms(perm...)); got != want {
				t.Fatalf("trial %d: fingerprint depends on insertion order", trial)
			}
		}
	}
}

func TestFingerprintIgnoresDuplicateAdds(t *testing.T) {
	atoms := []logic.Atom{
		logic.NewAtom(logic.Pred("R", 2), logic.Const("a"), logic.Const("b")),
		logic.NewAtom(logic.Pred("S", 1), logic.Const("a")),
	}
	in := FromAtoms(atoms...)
	want := fingerprint(in)
	for _, a := range atoms {
		if in.Add(a) {
			t.Fatalf("%v re-added", a)
		}
	}
	if fingerprint(in) != want {
		t.Error("duplicate Add changed the fingerprint")
	}
}

func TestFingerprintSurvivesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := FromAtoms(randomAtoms(rng, 12)...)
	if got := fingerprint(in.Clone()); got != fingerprint(in) {
		t.Errorf("Clone fingerprint %v != original %v", got, fingerprint(in))
	}
}

func TestFingerprintCollisionFreeOnRandomInstances(t *testing.T) {
	// Distinct atom sets must get distinct fingerprints. 2000 random
	// instances over a deliberately tiny schema (so near-collisions in
	// content are common) must all fingerprint apart.
	rng := rand.New(rand.NewSource(1234))
	type entry struct {
		key string
	}
	byFP := make(map[logic.Fingerprint]entry)
	canonical := func(in *Instance) string {
		keys := make([]string, in.Len())
		for i := range keys {
			keys[i] = in.AtomAt(i).Key()
		}
		sort.Strings(keys)
		return strings.Join(keys, "|")
	}
	distinct := 0
	for i := 0; i < 2000; i++ {
		in := FromAtoms(randomAtoms(rng, 1+rng.Intn(10))...)
		key := canonical(in)
		fp := fingerprint(in)
		if prev, dup := byFP[fp]; dup {
			if prev.key != key {
				t.Fatalf("collision: %q and %q share fingerprint %v", prev.key, key, fp)
			}
			continue
		}
		byFP[fp] = entry{key: key}
		distinct++
	}
	if distinct < 1000 {
		t.Fatalf("generator too narrow: only %d distinct instances", distinct)
	}
}

func TestFingerprintNullRenamingInvariance(t *testing.T) {
	// Nulls hash by content: the same atoms over differently named nulls
	// fingerprint apart, so the ∀∃ search must give each invented null one
	// name to merge states reached along different paths.
	plain := func(nullName string) *Instance {
		return FromAtoms(
			logic.NewAtom(logic.Pred("R", 2), logic.Const("a"), logic.NewNull(nullName)),
			logic.NewAtom(logic.Pred("S", 1), logic.NewNull(nullName)),
		)
	}
	if fingerprint(plain("n0")) == fingerprint(plain("n17")) {
		t.Error("content hashing must distinguish differently named nulls")
	}
}

func TestNewWithInternerSharesIdentity(t *testing.T) {
	tab := logic.NewInterner()
	a := NewWithInterner(tab)
	b := NewWithInterner(tab)
	atom := logic.NewAtom(logic.Pred("R", 1), logic.Const("x"))
	a.Add(atom)
	b.Add(atom)
	ida, _ := tab.LookupTerm(logic.Const("x"))
	if tab.NumTerms() != 1 {
		t.Fatalf("shared interner minted %d IDs for one term", tab.NumTerms())
	}
	if !b.HasTuple(mustPred(tab, logic.Pred("R", 1)), []logic.TermID{ida}) {
		t.Error("tuple membership must work across instances sharing the interner")
	}
	if fingerprint(a) != fingerprint(b) {
		t.Error("same atoms, same interner: fingerprints must agree")
	}
}

func mustPred(tab *logic.Interner, p logic.Predicate) logic.PredID {
	id, ok := tab.LookupPred(p)
	if !ok {
		panic("pred not interned")
	}
	return id
}
