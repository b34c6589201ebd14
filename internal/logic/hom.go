package logic

import "sort"

// AtomSource is the minimal read interface the homomorphism search needs
// from an instance: all atoms with a given predicate.
type AtomSource interface {
	AtomsByPredicate(Predicate) []Atom
}

// IndexedSource is an AtomSource that can additionally serve the insertion
// indices of atoms with a given term at a given (1-based) argument
// position. Instances implement it; the search uses it to prune
// candidates. Postings are indices (not copied atoms) so the index costs
// 4 bytes per entry and candidates resolve through AtomByIndex.
type IndexedSource interface {
	AtomSource
	AtomIndexesByPredicateTerm(p Predicate, pos int, t Term) []int32
	AtomByIndex(i int32) Atom
}

// SliceSource adapts a plain slice of atoms to AtomSource.
type SliceSource struct {
	atomsOf map[Predicate][]Atom
}

// NewSliceSource indexes the given atoms by predicate. The atoms' argument
// slices are not copied; callers must not mutate them while the source is
// in use.
func NewSliceSource(atoms []Atom) *SliceSource {
	s := &SliceSource{atomsOf: make(map[Predicate][]Atom)}
	for _, a := range atoms {
		s.atomsOf[a.Pred] = append(s.atomsOf[a.Pred], a)
	}
	return s
}

// AtomsByPredicate implements AtomSource.
func (s *SliceSource) AtomsByPredicate(p Predicate) []Atom { return s.atomsOf[p] }

// matchAtom attempts to extend s so that pattern maps onto target. On
// success it returns the extended substitution (possibly s itself when no
// new bindings were needed) and true. On failure s is returned unchanged
// (any partial additions are recorded in trail and undone by the caller).
func matchAtom(pattern, target Atom, s Substitution, trail *[]Term) bool {
	if pattern.Pred != target.Pred {
		return false
	}
	start := len(*trail)
	for i, pt := range pattern.Args {
		ut := target.Args[i]
		if !pt.Mappable() {
			if pt != ut {
				undoTrail(s, trail, start)
				return false
			}
			continue
		}
		if bound, ok := s[pt]; ok {
			if bound != ut {
				undoTrail(s, trail, start)
				return false
			}
			continue
		}
		s[pt] = ut
		*trail = append(*trail, pt)
	}
	return true
}

func undoTrail(s Substitution, trail *[]Term, to int) {
	for i := len(*trail) - 1; i >= to; i-- {
		delete(s, (*trail)[i])
	}
	*trail = (*trail)[:to]
}

// candidates returns the atoms of src that could match pattern under the
// current bindings: either a posting list of indices into idx (when src is
// indexed and some pattern position is ground under s), or a plain atom
// slice. Exactly one of the two results is non-nil… unless both are empty.
func candidates(pattern Atom, s Substitution, src AtomSource) (byIdx []int32, idx IndexedSource, atoms []Atom) {
	if ix, ok := src.(IndexedSource); ok {
		// Prefer a position whose pattern term is already ground under s.
		for i, pt := range pattern.Args {
			t := pt
			if pt.Mappable() {
				bound, ok := s[pt]
				if !ok {
					continue
				}
				t = bound
			}
			return ix.AtomIndexesByPredicateTerm(pattern.Pred, i+1, t), ix, nil
		}
	}
	return nil, nil, src.AtomsByPredicate(pattern.Pred)
}

// boundness scores how constrained a pattern atom is under s: the number of
// arguments that are constants or already-bound terms. Higher is more
// selective.
func boundness(pattern Atom, s Substitution) int {
	n := 0
	for _, pt := range pattern.Args {
		if !pt.Mappable() {
			n++
			continue
		}
		if _, ok := s[pt]; ok {
			n++
		}
	}
	return n
}

// ForEachHomomorphism enumerates every homomorphism h ⊇ base from the
// pattern atoms into src, calling yield for each. Enumeration stops early
// when yield returns false. The substitution passed to yield is reused
// between calls: callers that retain it must Clone it.
//
// Constants in the pattern must match exactly; nulls and variables are
// mappable. The base substitution is not mutated.
func ForEachHomomorphism(pattern []Atom, base Substitution, src AtomSource, yield func(Substitution) bool) {
	s := base.Clone()
	if s == nil {
		s = NewSubstitution()
	}
	remaining := make([]Atom, len(pattern))
	copy(remaining, pattern)
	var trail []Term
	var rec func() bool
	rec = func() bool {
		if len(remaining) == 0 {
			return yield(s)
		}
		// Pick the most constrained remaining atom (greedy selectivity).
		best := 0
		bestScore := -1
		for i, a := range remaining {
			if sc := boundness(a, s); sc > bestScore {
				bestScore, best = sc, i
			}
		}
		pat := remaining[best]
		last := len(remaining) - 1
		remaining[best] = remaining[last]
		remaining = remaining[:last]
		cont := true
		byIdx, idx, atoms := candidates(pat, s, src)
		n := len(byIdx) + len(atoms)
		for c := 0; c < n && cont; c++ {
			var cand Atom
			if byIdx != nil {
				cand = idx.AtomByIndex(byIdx[c])
			} else {
				cand = atoms[c]
			}
			start := len(trail)
			if !matchAtom(pat, cand, s, &trail) {
				continue
			}
			if !rec() {
				undoTrail(s, &trail, start)
				cont = false
				break
			}
			undoTrail(s, &trail, start)
		}
		// Undo the swap-removal exactly: the atom that was moved into slot
		// best goes back to the end, and pat returns to slot best. (When
		// best == last the first write is a no-op.)
		remaining = remaining[:last+1]
		remaining[last] = remaining[best]
		remaining[best] = pat
		return cont
	}
	rec()
}

// FindHomomorphism returns some homomorphism h ⊇ base from pattern into src,
// or nil if none exists.
func FindHomomorphism(pattern []Atom, base Substitution, src AtomSource) Substitution {
	var found Substitution
	ForEachHomomorphism(pattern, base, src, func(s Substitution) bool {
		found = s.Clone()
		return false
	})
	return found
}

// HasHomomorphism reports whether some homomorphism h ⊇ base from pattern
// into src exists.
func HasHomomorphism(pattern []Atom, base Substitution, src AtomSource) bool {
	return FindHomomorphism(pattern, base, src) != nil
}

// AllHomomorphisms collects every homomorphism h ⊇ base from pattern into
// src, in a deterministic order (the order induced by src's atom slices).
func AllHomomorphisms(pattern []Atom, base Substitution, src AtomSource) []Substitution {
	var out []Substitution
	ForEachHomomorphism(pattern, base, src, func(s Substitution) bool {
		out = append(out, s.Clone())
		return true
	})
	return out
}

// CanonicalFreeze returns a copy of the atoms where every variable is
// replaced by a distinct fresh constant ("freezing"), along with the
// freezing substitution. Freezing turns a conjunctive-query body into its
// canonical database.
func CanonicalFreeze(atoms []Atom, namer *FreshNamer) ([]Atom, Substitution) {
	frz := NewSubstitution()
	for _, v := range VarsOf(atoms).Sorted() {
		frz.Bind(v, Const("~"+v.Name+"~"+namer.Next()))
	}
	return frz.ApplyAtoms(atoms), frz
}

// SortSubstitutions orders substitutions canonically (Substitution.Compare):
// deterministic trigger enumeration relies on this order, and the engine's
// interned fast path reproduces it over TermID tuples.
func SortSubstitutions(subs []Substitution) {
	if len(subs) < 2 {
		return
	}
	keys := make([][]substPair, len(subs))
	for i, s := range subs {
		keys[i] = s.sortedPairs()
	}
	sort.Sort(&substSorter{subs: subs, keys: keys})
}

type substSorter struct {
	subs []Substitution
	keys [][]substPair
}

func (ss *substSorter) Len() int { return len(ss.subs) }
func (ss *substSorter) Swap(i, j int) {
	ss.subs[i], ss.subs[j] = ss.subs[j], ss.subs[i]
	ss.keys[i], ss.keys[j] = ss.keys[j], ss.keys[i]
}
func (ss *substSorter) Less(i, j int) bool {
	return comparePairs(ss.keys[i], ss.keys[j]) < 0
}
