package instance

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"airct/internal/logic"
)

// sameInstance reports how got differs from want, two instances on one
// interner, or "" when they agree on everything the read API and the
// ID-plane consumers see: Len, the identity tuples in insertion order, every
// predicate and (predicate, position, term) posting list, and the atoms.
// Keys are taken from both instances' tables, so a posting left behind
// under a key the other instance lacks is caught too.
func sameInstance(got, want *Instance) string {
	if got.Len() != want.Len() {
		return "Len differs"
	}
	for i := 0; i < want.Len(); i++ {
		if !slices.Equal(got.atoms.Tuple(int32(i)), want.atoms.Tuple(int32(i))) {
			return "identity tuples differ"
		}
	}
	for p := range max(len(got.byPred), len(want.byPred)) {
		if !slices.Equal(got.IdxByPred(logic.PredID(p)), want.IdxByPred(logic.PredID(p))) {
			return "IdxByPred differs"
		}
	}
	for _, keys := range [][]uint64{got.pt.keys, want.pt.keys} {
		for _, k := range keys {
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
	if in.Len() != 0 || len(in.byPred)+len(in.pt.keys)+len(in.atomLists) != 0 {
		t.Fatalf("Clear left %d atoms, %d+%d keys, %d list IDs", in.Len(), len(in.byPred), len(in.pt.keys), len(in.atomLists))
	}
	atoms := randomAtoms(rng, 25)
	in.AddAll(atoms)
	want := NewWithInterner(tab)
	want.AddAll(atoms)
	if diff := sameInstance(in, want); diff != "" {
		t.Fatalf("refilled after Clear: %s", diff)
	}
}

// postingModel is the posting layout the instance replaced, as a Go-map
// model: every (predicate, position, term) key of the first n atoms of in,
// packed as ptPack packs it, mapped to its insertion indices.
func postingModel(in *Instance, n int) map[uint64][]int32 {
	m := make(map[uint64][]int32)
	for i := int32(0); int(i) < n; i++ {
		pid := in.AtomPredID(i)
		for pos, t := range in.AtomArgIDs(i) {
			k := ptPack(pid, pos+1, logic.TermID(t))
			m[k] = append(m[k], i)
		}
	}
	return m
}

// TestPostingTableMatchesMapModel drives thousands of keys through the
// posting table's growth from its smallest size, then truncates, clears,
// refills and truncates again. After each step every key of the Go-map
// model must find the model's list, and every key in the table must hold
// the model's list or, once truncated past its last atom, an empty one.
// After Clear the table holds no key, and after the refill exactly the
// model's keys.
func TestPostingTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := logic.NewInterner()
	preds := []logic.PredID{
		tab.InternPred(logic.Pred("A", 1)),
		tab.InternPred(logic.Pred("B", 2)),
		tab.InternPred(logic.Pred("C", 3)),
	}
	var terms []logic.TermID
	for i := 0; i < 700; i++ {
		terms = append(terms, tab.InternTerm(logic.Const(fmt.Sprintf("c%d", i))))
	}
	in := NewWithInterner(tab)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			pid := preds[rng.Intn(len(preds))]
			args := make([]logic.TermID, tab.Pred(pid).Arity)
			for k := range args {
				args[k] = terms[rng.Intn(len(terms))]
			}
			in.AddTuple(pid, args)
		}
	}
	check := func(step string, exactKeys bool) {
		t.Helper()
		model := postingModel(in, in.Len())
		for k, want := range model {
			p, pos, term := logic.PredID(k>>42), int(k>>32&0x3ff), logic.TermID(uint32(k))
			if got := in.IdxByPredTerm(p, pos, term); !slices.Equal(got, want) {
				t.Fatalf("%s: key (%d, %d, %d) lists %v, model %v", step, p, pos, term, got, want)
			}
		}
		for _, k := range in.pt.keys {
			if got := in.pt.find(k); !slices.Equal(got, model[k]) {
				t.Fatalf("%s: table key %#x lists %v, model %v", step, k, got, model[k])
			}
		}
		if exactKeys && len(in.pt.keys) != len(model) {
			t.Fatalf("%s: the table holds %d keys, the model %d", step, len(in.pt.keys), len(model))
		}
		if diff := sameInstance(in, rebuilt(in)); diff != "" {
			t.Fatalf("%s: %s from a fresh instance of the same atoms", step, diff)
		}
	}
	fill(3000)
	if len(in.pt.keys) < 2000 {
		t.Fatalf("the fill opened %d keys, want thousands", len(in.pt.keys))
	}
	check("fill", true)
	for _, n := range []int{2500, 1200, 1199, 40} {
		in.Truncate(n)
		check(fmt.Sprintf("truncate to %d", n), false)
	}
	fill(500)
	check("add after truncate", false)
	in.Clear()
	if len(in.pt.keys) != 0 || in.pt.find(ptPack(preds[1], 1, terms[0])) != nil {
		t.Fatalf("Clear left %d keys", len(in.pt.keys))
	}
	fill(2000)
	check("refill after Clear", true)
	in.Truncate(700)
	check("truncate the refill", false)
}

// rebuilt returns a fresh instance on in's interner holding in's atoms in
// insertion order.
func rebuilt(in *Instance) *Instance {
	out := NewWithInterner(in.Interner())
	var args []logic.TermID
	for i := int32(0); int(i) < in.Len(); i++ {
		args = args[:0]
		for _, t := range in.AtomArgIDs(i) {
			args = append(args, logic.TermID(t))
		}
		out.AddTuple(in.AtomPredID(i), args)
	}
	return out
}
