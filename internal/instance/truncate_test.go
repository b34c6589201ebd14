package instance

import (
	"math/rand"
	"slices"
	"testing"

	"airct/internal/logic"
)

// sameInstance reports how got differs from want, two instances on one
// interner, or "" when they agree on everything the read API and the
// ID-plane consumers see: Len, the identity tuples in insertion order, every
// predicate and (predicate, position, term) posting list, and the atoms.
// Keys are taken from both instances' maps, so a posting left behind under
// a key the other instance lacks is caught too.
func sameInstance(got, want *Instance) string {
	if got.Len() != want.Len() {
		return "Len differs"
	}
	for i := 0; i < want.Len(); i++ {
		if !slices.Equal(got.atoms.Tuple(int32(i)), want.atoms.Tuple(int32(i))) {
			return "identity tuples differ"
		}
	}
	for _, m := range []map[logic.PredID][]int32{got.predIdx, want.predIdx} {
		for p := range m {
			if !slices.Equal(got.IdxByPred(p), want.IdxByPred(p)) {
				return "IdxByPred differs"
			}
		}
	}
	for _, m := range []map[uint64][]int32{got.ptIdx, want.ptIdx} {
		for k := range m {
			p, pos, term := logic.PredID(k>>42), int(k>>32&0x3ff), logic.TermID(uint32(k))
			if !slices.Equal(got.IdxByPredTerm(p, pos, term), want.IdxByPredTerm(p, pos, term)) {
				return "IdxByPredTerm differs"
			}
		}
	}
	if !slices.EqualFunc(got.Atoms(), want.Atoms(), logic.Atom.Equal) {
		return "Atoms differ"
	}
	return ""
}

// TestInstanceTruncateMatchesFreshInstance walks an instance through random
// adds (duplicates included) and truncations to random sizes, the search's
// rewind-and-replay pattern; after every step the instance must equal a
// fresh one holding the same atoms in the same order, and its atoms must
// be the model's.
func TestInstanceTruncateMatchesFreshInstance(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := logic.NewInterner()
		in := NewWithInterner(tab)
		var model []logic.Atom
		for step := 0; step < 30; step++ {
			if rng.Intn(3) == 0 {
				n := rng.Intn(len(model) + 1)
				in.Truncate(n)
				model = model[:n]
			} else {
				for _, a := range randomAtoms(rng, 1+rng.Intn(12)) {
					if in.Add(a) {
						model = append(model, a)
					}
				}
			}
			want := NewWithInterner(tab)
			want.AddAll(model)
			if diff := sameInstance(in, want); diff != "" {
				t.Fatalf("seed %d step %d: %s from a fresh instance of the same %d atoms", seed, step, diff, len(model))
			}
			if !slices.EqualFunc(in.Atoms(), model, logic.Atom.Equal) {
				t.Fatalf("seed %d step %d: Atoms() = %v, want %v", seed, step, in.Atoms(), model)
			}
		}
	}
}

// TestInstanceClearThenRefill: Clear drops every key, and an instance
// refilled after Clear equals a fresh one.
func TestInstanceClearThenRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := logic.NewInterner()
	in := NewWithInterner(tab)
	in.AddAll(randomAtoms(rng, 40))
	in.Clear()
	if in.Len() != 0 || len(in.predIdx)+len(in.ptIdx) != 0 {
		t.Fatalf("Clear left %d atoms, %d+%d keys", in.Len(), len(in.predIdx), len(in.ptIdx))
	}
	atoms := randomAtoms(rng, 25)
	in.AddAll(atoms)
	want := NewWithInterner(tab)
	want.AddAll(atoms)
	if diff := sameInstance(in, want); diff != "" {
		t.Fatalf("refilled after Clear: %s", diff)
	}
}
