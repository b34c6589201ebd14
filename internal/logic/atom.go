package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Predicate is a relation symbol with an associated arity. Predicates are
// comparable values.
type Predicate struct {
	Name  string
	Arity int
}

// Pred returns the predicate with the given name and arity.
func Pred(name string, arity int) Predicate { return Predicate{Name: name, Arity: arity} }

// String renders the predicate as "Name/Arity".
func (p Predicate) String() string { return fmt.Sprintf("%s/%d", p.Name, p.Arity) }

// Position identifies the i-th argument of a predicate, written (R, i).
// Positions are 1-based, following the paper.
type Position struct {
	Pred  Predicate
	Index int // 1-based
}

// String renders the position as "(R/n, i)".
func (p Position) String() string { return fmt.Sprintf("(%s,%d)", p.Pred, p.Index) }

// Schema is a finite set of predicates, sorted for deterministic iteration.
type Schema struct {
	preds map[Predicate]struct{}
}

// NewSchema returns a schema containing the given predicates.
func NewSchema(ps ...Predicate) *Schema {
	s := &Schema{preds: make(map[Predicate]struct{}, len(ps))}
	for _, p := range ps {
		s.preds[p] = struct{}{}
	}
	return s
}

// Add inserts p into the schema.
func (s *Schema) Add(p Predicate) { s.preds[p] = struct{}{} }

// Len returns the number of predicates.
func (s *Schema) Len() int { return len(s.preds) }

// Predicates returns the predicates sorted by name then arity.
func (s *Schema) Predicates() []Predicate {
	out := make([]Predicate, 0, len(s.preds))
	for p := range s.preds {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// Atom is an expression R(t1, …, tn). The argument slice is owned by the
// atom; callers must not mutate it after construction.
type Atom struct {
	Pred Predicate
	Args []Term
}

// NewAtom builds an atom, panicking if the argument count does not match the
// predicate's arity. Construction sites are internal, so a mismatch is a
// programming error rather than an input error.
func NewAtom(p Predicate, args ...Term) Atom {
	if len(args) != p.Arity {
		panic(fmt.Sprintf("logic: atom %s built with %d args", p, len(args)))
	}
	return Atom{Pred: p, Args: args}
}

// MustAtom builds an atom over a predicate derived from the name and the
// number of arguments. Convenient in tests.
func MustAtom(name string, args ...Term) Atom {
	return Atom{Pred: Pred(name, len(args)), Args: args}
}

// Arg returns the term at 1-based position i, following the paper's R(t̄)[i].
func (a Atom) Arg(i int) Term {
	return a.Args[i-1]
}

// IsFact reports whether every argument is a constant.
func (a Atom) IsFact() bool {
	for _, t := range a.Args {
		if !t.IsConst() {
			return false
		}
	}
	return true
}

// IsGround reports whether the atom contains no variables (constants and
// nulls only), i.e. whether it may appear in an instance.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Terms returns the set of terms occurring in the atom.
func (a Atom) Terms() TermSet {
	s := make(TermSet, len(a.Args))
	for _, t := range a.Args {
		s[t] = struct{}{}
	}
	return s
}

// HasTerm reports whether t occurs among the atom's arguments.
func (a Atom) HasTerm(t Term) bool {
	for _, u := range a.Args {
		if u == t {
			return true
		}
	}
	return false
}

// PositionsOf returns the 1-based positions at which t occurs in the atom,
// the paper's pos(R(t̄), x).
func (a Atom) PositionsOf(t Term) []int {
	var out []int
	for i, u := range a.Args {
		if u == t {
			out = append(out, i+1)
		}
	}
	return out
}

// Equal reports syntactic equality of atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string encoding of the atom, suitable as a map
// key. Two atoms have equal keys iff they are syntactically equal.
func (a Atom) Key() string {
	var b strings.Builder
	b.Grow(len(a.Pred.Name) + 8*len(a.Args))
	b.WriteString(a.Pred.Name)
	b.WriteByte('/')
	fmt.Fprintf(&b, "%d", a.Pred.Arity)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		switch t.Kind {
		case Constant:
			b.WriteByte('c')
		case Null:
			b.WriteByte('n')
		case Variable:
			b.WriteByte('v')
		}
		b.WriteString(t.Name)
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the atom as R(t1,…,tn).
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Pred.Name)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Apply returns the atom obtained by replacing every term t with s(t) when s
// binds t, leaving unbound terms untouched.
func (a Atom) Apply(s Substitution) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		if u, ok := s[t]; ok {
			args[i] = u
		} else {
			args[i] = t
		}
	}
	return Atom{Pred: a.Pred, Args: args}
}

// AtomsString renders a list of atoms as a comma-separated conjunction.
func AtomsString(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// TermsOf returns the set of all terms occurring in the given atoms,
// the paper's dom(I) when the atoms form an instance.
func TermsOf(atoms []Atom) TermSet {
	s := make(TermSet)
	for _, a := range atoms {
		for _, t := range a.Args {
			s[t] = struct{}{}
		}
	}
	return s
}

// VarsOf returns the set of variables occurring in the given atoms.
func VarsOf(atoms []Atom) TermSet {
	s := make(TermSet)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				s[t] = struct{}{}
			}
		}
	}
	return s
}

// SortAtoms sorts atoms by key, giving a deterministic order.
func SortAtoms(atoms []Atom) {
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].Key() < atoms[j].Key() })
}
