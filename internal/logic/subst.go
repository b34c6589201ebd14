package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Substitution is a finite function from terms to terms. Following the
// paper, substitutions are built from the empty substitution by adjoining
// single bindings t ↦ t′. A substitution used as a homomorphism must be the
// identity on constants; that invariant is enforced by the homomorphism
// search and by Validate, not by the map type itself.
type Substitution map[Term]Term

// NewSubstitution returns an empty substitution.
func NewSubstitution() Substitution { return make(Substitution) }

// Bind returns s extended with t ↦ u, mutating s in place. It panics if t is
// already bound to a different term: silently overwriting a binding is
// always a bug in this codebase.
func (s Substitution) Bind(t, u Term) Substitution {
	if prev, ok := s[t]; ok && prev != u {
		panic(fmt.Sprintf("logic: rebinding %v: %v -> %v", t, prev, u))
	}
	s[t] = u
	return s
}

// ApplyTerm returns s(t) when t is bound, and t itself otherwise.
func (s Substitution) ApplyTerm(t Term) Term {
	if u, ok := s[t]; ok {
		return u
	}
	return t
}

// ApplyAtoms maps s over a list of atoms.
func (s Substitution) ApplyAtoms(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Apply(s)
	}
	return out
}

// Restrict returns h|S, the restriction of s to the given set of terms.
func (s Substitution) Restrict(dom TermSet) Substitution {
	out := make(Substitution, len(dom))
	for t, u := range s {
		if dom.Has(t) {
			out[t] = u
		}
	}
	return out
}

// Clone returns a copy of s.
func (s Substitution) Clone() Substitution {
	out := make(Substitution, len(s))
	for t, u := range s {
		out[t] = u
	}
	return out
}

// Compare orders substitutions canonically: the binding lists, sorted by
// bound term, are compared componentwise — bound terms first, then images,
// via Term.Compare — with a proper prefix sorting first. This is the
// ordering behind deterministic trigger enumeration; unlike comparing Key()
// strings it builds nothing and is agnostic to name quirks (a joined string
// comparison would order "n10" before "n1" next to a separator byte).
func (s Substitution) Compare(other Substitution) int {
	return comparePairs(s.sortedPairs(), other.sortedPairs())
}

type substPair struct{ from, to Term }

// comparePairs is the canonical ordering over sorted binding lists, shared
// by Substitution.Compare and SortSubstitutions so the two can never
// drift apart.
func comparePairs(a, b []substPair) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := a[i].from.Compare(b[i].from); c != 0 {
			return c
		}
		if c := a[i].to.Compare(b[i].to); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func (s Substitution) sortedPairs() []substPair {
	pairs := make([]substPair, 0, len(s))
	for t, u := range s {
		pairs = append(pairs, substPair{t, u})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].from.Compare(pairs[j].from) < 0 })
	return pairs
}

// Key returns a canonical string encoding of the substitution (bindings in
// sorted order). Two substitutions have equal keys iff they are Equal. It
// is a debug/test renderer: steady-state engine paths identify
// substitutions by interned TermID tuples instead.
func (s Substitution) Key() string {
	pairs := s.sortedPairs()
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p.from.String())
		b.WriteString("->")
		switch p.to.Kind {
		case Null:
			b.WriteString("_:")
		case Variable:
			b.WriteString("?")
		}
		b.WriteString(p.to.Name)
	}
	return b.String()
}

// String renders the substitution as {t1->u1, t2->u2, …} in sorted order.
func (s Substitution) String() string {
	return "{" + strings.ReplaceAll(s.Key(), ";", ", ") + "}"
}
