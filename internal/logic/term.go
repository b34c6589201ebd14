// Package logic provides the first-order building blocks used throughout the
// library: terms (constants, labeled nulls, variables), predicates, atoms,
// substitutions, and homomorphism search between sets of atoms.
//
// The definitions follow Section 2 of Gogacz, Marcinkowski, Pieris,
// "All-Instances Restricted Chase Termination" (PODS 2020): terms are drawn
// from three pairwise-disjoint countably infinite sets C (constants),
// N (labeled nulls) and V (variables); a homomorphism is a substitution that
// is the identity on constants and preserves atoms.
package logic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// TermKind distinguishes the three disjoint universes of terms.
type TermKind uint8

const (
	// Constant is an element of C. Homomorphisms fix constants.
	Constant TermKind = iota
	// Null is a labeled null from N, invented by the chase as a witness for
	// an existentially quantified variable. Homomorphisms may map nulls.
	Null
	// Variable is an element of V, used in dependencies only.
	Variable
)

func (k TermKind) String() string {
	switch k {
	case Constant:
		return "constant"
	case Null:
		return "null"
	case Variable:
		return "variable"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a constant, labeled null, or variable. Terms are small comparable
// values: they can be used as map keys and compared with ==.
type Term struct {
	Kind TermKind
	Name string
}

// Const returns the constant with the given name.
func Const(name string) Term { return Term{Kind: Constant, Name: name} }

// NewNull returns the labeled null with the given label.
func NewNull(name string) Term { return Term{Kind: Null, Name: name} }

// Var returns the variable with the given name.
func Var(name string) Term { return Term{Kind: Variable, Name: name} }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Kind == Constant }

// IsNull reports whether t is a labeled null.
func (t Term) IsNull() bool { return t.Kind == Null }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == Variable }

// Mappable reports whether a homomorphism is allowed to move t, i.e. whether
// t is a null or a variable. Constants are rigid.
func (t Term) Mappable() bool { return t.Kind != Constant }

// String renders the term using the library's concrete syntax: constants are
// bare identifiers, nulls carry the "_:" prefix, and variables the "?" prefix
// is not used — variables render as bare uppercase-style names, matching the
// parser convention that identifiers beginning with an upper-case letter are
// variables inside dependencies.
func (t Term) String() string {
	switch t.Kind {
	case Null:
		return "_:" + t.Name
	default:
		return t.Name
	}
}

// Compare orders terms first by kind (constants < nulls < variables), then by
// name. It returns -1, 0, or +1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	return strings.Compare(t.Name, u.Name)
}

// SortTerms sorts ts in place using Term.Compare.
func SortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// TermSet is a set of terms.
type TermSet map[Term]struct{}

// NewTermSet returns a set containing the given terms.
func NewTermSet(ts ...Term) TermSet {
	s := make(TermSet, len(ts))
	for _, t := range ts {
		s[t] = struct{}{}
	}
	return s
}

// Add inserts t and reports whether it was newly added.
func (s TermSet) Add(t Term) bool {
	if _, ok := s[t]; ok {
		return false
	}
	s[t] = struct{}{}
	return true
}

// Has reports membership.
func (s TermSet) Has(t Term) bool {
	_, ok := s[t]
	return ok
}

// Sorted returns the elements in Term.Compare order.
func (s TermSet) Sorted() []Term {
	out := make([]Term, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	SortTerms(out)
	return out
}

// FreshNamer hands out fresh names with a common prefix: prefix0, prefix1, …
// It is not safe for concurrent use; engines own one namer each.
type FreshNamer struct {
	prefix string
	next   int
}

// NewFreshNamer returns a namer producing prefix0, prefix1, …
func NewFreshNamer(prefix string) *FreshNamer {
	return &FreshNamer{prefix: prefix}
}

// Next returns the next fresh name.
func (f *FreshNamer) Next() string {
	name := f.prefix + strconv.Itoa(f.next)
	f.next++
	return name
}

// NextNull returns a fresh labeled null.
func (f *FreshNamer) NextNull() Term { return NewNull(f.Next()) }

// NextVar returns a fresh variable.
func (f *FreshNamer) NextVar() Term { return Var(f.Next()) }
