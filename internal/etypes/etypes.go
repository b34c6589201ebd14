// Package etypes implements equality types over a schema (Appendix A of
// the paper). The equality type of an atom R(t1,…,tn) records which
// argument positions carry equal terms. Equality types are the finite
// abstraction driving Lemma 4.4 (finiteness of the deactivation set A) and
// the states of the sticky Büchi automata (Appendix D.2).
package etypes

import (
	"fmt"
	"strings"

	"airct/internal/logic"
)

// EType is an equality type (R, E): a predicate together with a partition of
// its argument positions. The partition is encoded canonically as a
// restricted-growth string: rep[i] is the 0-based index of the first
// position whose term equals position i's term.
type EType struct {
	Pred logic.Predicate
	rep  []int
}

// Of returns the equality type of the atom: positions i and j share a class
// iff the atom carries the same term at i and j.
func Of(a logic.Atom) EType {
	rep := make([]int, len(a.Args))
	for i, t := range a.Args {
		rep[i] = i
		for j := 0; j < i; j++ {
			if a.Args[j] == t {
				rep[i] = j
				break
			}
		}
	}
	return EType{Pred: a.Pred, rep: rep}
}

// FromPartition builds an equality type from an explicit representative
// vector (rep[i] = index of the first position in i's class). It
// canonicalises and validates the vector.
func FromPartition(p logic.Predicate, rep []int) (EType, error) {
	if len(rep) != p.Arity {
		return EType{}, fmt.Errorf("etypes: partition length %d for %s", len(rep), p)
	}
	out := make([]int, len(rep))
	for i, r := range rep {
		if r < 0 || r > i {
			return EType{}, fmt.Errorf("etypes: rep[%d] = %d out of range", i, r)
		}
		if r == i {
			out[i] = i
			continue
		}
		if rep[r] != r {
			return EType{}, fmt.Errorf("etypes: rep[%d] = %d is not a class representative", i, r)
		}
		out[i] = r
	}
	return EType{Pred: p, rep: out}, nil
}

// ClassOf returns the 1-based representative position of 1-based position i.
func (e EType) ClassOf(i int) int { return e.rep[i-1] + 1 }

// Classes returns the 1-based representative positions, in order.
func (e EType) Classes() []int {
	var out []int
	for i, r := range e.rep {
		if r == i {
			out = append(out, i+1)
		}
	}
	return out
}

// Key returns a canonical encoding usable as a map key.
func (e EType) Key() string {
	var b strings.Builder
	b.WriteString(e.Pred.Name)
	fmt.Fprintf(&b, "/%d:", e.Pred.Arity)
	for i, r := range e.rep {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	return b.String()
}

// String renders the type with its canonical atom, e.g. "R(*1,*1,*3)".
func (e EType) String() string {
	parts := make([]string, len(e.rep))
	for i, r := range e.rep {
		parts[i] = fmt.Sprintf("*%d", r+1)
	}
	return e.Pred.Name + "(" + strings.Join(parts, ",") + ")"
}

// CanonicalAtomFunc returns the canonical atom with the term of each class
// chosen by the caller; class identifies the class's 1-based representative
// position.
func (e EType) CanonicalAtomFunc(term func(class int) logic.Term) logic.Atom {
	byClass := make(map[int]logic.Term)
	args := make([]logic.Term, len(e.rep))
	for i, r := range e.rep {
		t, ok := byClass[r]
		if !ok {
			t = term(r + 1)
			byClass[r] = t
		}
		args[i] = t
	}
	return logic.NewAtom(e.Pred, args...)
}

// AllForPredicate enumerates every equality type over the predicate (every
// partition of its positions, i.e. Bell(ar(R)) many), in a deterministic
// order.
func AllForPredicate(p logic.Predicate) []EType {
	var out []EType
	ForEach(p, func(e EType) bool {
		out = append(out, e)
		return true
	})
	return out
}

// ForEach calls yield with each equality type over the predicate, in
// AllForPredicate's order, until yield returns false, and reports whether
// it reached the end. It holds one partition at a time, so a caller can
// stop before Bell(ar(R)) of them exist.
func ForEach(p logic.Predicate, yield func(EType) bool) bool {
	if p.Arity == 0 {
		return yield(EType{Pred: p})
	}
	rep := make([]int, p.Arity)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.Arity {
			cp := make([]int, len(rep))
			copy(cp, rep)
			return yield(EType{Pred: p, rep: cp})
		}
		// Position i joins an existing class (a representative j < i) or
		// starts its own.
		for j := 0; j < i; j++ {
			if rep[j] == j {
				rep[i] = j
				if !rec(i + 1) {
					return false
				}
			}
		}
		rep[i] = i
		return rec(i + 1)
	}
	return rec(0)
}

// AllForSchema enumerates etypes(S): every equality type over every
// predicate of the schema.
func AllForSchema(s *logic.Schema) []EType {
	var out []EType
	for _, p := range s.Predicates() {
		out = append(out, AllForPredicate(p)...)
	}
	return out
}
