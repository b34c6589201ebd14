package tgds

import (
	"fmt"

	"airct/internal/logic"
)

// Marking is the result of the stickiness marking procedure of Section 2:
// the set of body variables of a TGD set that are "marked in T". Because
// NewSet standardises TGDs apart, a variable identifies its TGD, so the
// marking is a single variable set.
type Marking struct {
	set       *Set
	marked    logic.TermSet
	violation *StickyViolation
}

// ComputeMarking runs the inductive marking procedure to fixpoint:
//
//  1. a body variable that does not occur in the head of its TGD is marked;
//  2. if head(σ) = R(t̄) and x ∈ t̄ occurs in the body of σ, and there is
//     σ′ ∈ T with an atom R(t̄′) in its body such that every variable of t̄′
//     at a position of pos(R(t̄), x) is marked, then x is marked.
//
// The fixpoint is computed in one worklist pass. Each candidate of rule 2
// (a TGD's body variable x that occurs in its head, with pos(R(t̄), x)) is
// indexed under every position (R, i) of pos(R(t̄), x). When a variable is
// marked, its body occurrences are visited once: an occurrence at position
// i of an atom R(t̄′) re-checks only the candidates indexed under (R, i),
// and marks one whose positions in t̄′ all hold marked variables. The last
// of those variables to be marked visits that atom at one of them, so
// every variable rule 2 marks is found; the result is the least fixpoint.
//
// It requires a single-head set (stickiness is defined for class S, which is
// single-head) and returns an error otherwise.
func ComputeMarking(s *Set) (*Marking, error) {
	if !s.IsSingleHead() {
		return nil, fmt.Errorf("tgds: stickiness marking requires single-head TGDs")
	}
	type candidate struct {
		v   logic.Term
		pos []int // pos(R(t̄), v), 1-based
	}
	type occurrence struct {
		atom logic.Atom
		i    int // 1-based
	}
	marked := make(logic.TermSet)
	var queue []logic.Term
	mark := func(v logic.Term) {
		marked[v] = struct{}{}
		queue = append(queue, v)
	}
	byPos := make(map[logic.Position][]candidate)
	occs := make(map[logic.Term][]occurrence)
	for _, t := range s.TGDs {
		head := t.HeadAtom()
		for v := range t.BodyVars() {
			pos := head.PositionsOf(v)
			if len(pos) == 0 {
				mark(v) // rule 1
				continue
			}
			for _, i := range pos {
				p := logic.Position{Pred: head.Pred, Index: i}
				byPos[p] = append(byPos[p], candidate{v: v, pos: pos})
			}
		}
		for _, a := range t.Body {
			for i, term := range a.Args {
				if term.IsVar() {
					occs[term] = append(occs[term], occurrence{atom: a, i: i + 1})
				}
			}
		}
	}
	for len(queue) > 0 {
		y := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, o := range occs[y] {
			for _, c := range byPos[logic.Position{Pred: o.atom.Pred, Index: o.i}] {
				if !marked.Has(c.v) && allMarked(o.atom, c.pos, marked) {
					mark(c.v) // rule 2
				}
			}
		}
	}
	m := &Marking{set: s, marked: marked}
	m.violation = m.findViolation()
	return m, nil
}

// allMarked reports whether a holds a marked variable at every one of the
// given 1-based positions.
func allMarked(a logic.Atom, positions []int, marked logic.TermSet) bool {
	for _, i := range positions {
		if !marked.Has(a.Arg(i)) {
			return false
		}
	}
	return true
}

// IsMarked reports whether the body variable v is marked in T.
func (m *Marking) IsMarked(v logic.Term) bool { return m.marked.Has(v) }

// MarkedVars returns the marked variables in sorted order.
func (m *Marking) MarkedVars() []logic.Term { return m.marked.Sorted() }

// StickyViolation describes why a set fails stickiness: a TGD whose body
// contains two or more occurrences of a marked variable.
type StickyViolation struct {
	TGD TGD
	Var logic.Term
}

func (v *StickyViolation) Error() string {
	return fmt.Sprintf("tgds: %s is not sticky: marked variable %v occurs more than once in the body of %s",
		v.TGD.Label, v.Var, v.TGD.Label)
}

// Violation returns a sticky violation if one exists: some TGD whose body
// mentions a marked variable at two or more argument positions.
func (m *Marking) Violation() *StickyViolation { return m.violation }

func (m *Marking) findViolation() *StickyViolation {
	for _, t := range m.set.TGDs {
		counts := make(map[logic.Term]int)
		for _, a := range t.Body {
			for _, term := range a.Args {
				if term.IsVar() {
					counts[term]++
				}
			}
		}
		for _, v := range logic.VarsOf(t.Body).Sorted() {
			if counts[v] > 1 && m.marked.Has(v) {
				return &StickyViolation{TGD: t, Var: v}
			}
		}
	}
	return nil
}

// Marking returns the set's stickiness marking, computed on first use and
// memoised like Fingerprint: the sticky gate, the Büchi decider and its
// compiled machine all read this one value. The error is non-nil only for
// multi-head sets. The marking looks at the TGDs alone.
func (s *Set) Marking() (*Marking, error) {
	s.markOnce.Do(func() { s.marking, s.markErr = ComputeMarking(s) })
	return s.marking, s.markErr
}

// IsSticky reports whether the (single-head) set is sticky, returning the
// memoised marking used for the check; the error is non-nil only for
// multi-head inputs. Like the marking it looks at the TGDs alone.
func IsSticky(s *Set) (bool, *Marking, error) {
	m, err := s.Marking()
	if err != nil {
		return false, nil, err
	}
	return m.Violation() == nil, m, nil
}

// IsSticky reports whether the set is sticky. Multi-head sets are not
// sticky by definition (S is a class of single-head TGDs), and a set with
// EGDs is never reported sticky: the Büchi decision procedure is TGD-only.
func (s *Set) IsSticky() bool {
	if s.HasEGDs() {
		return false
	}
	ok, _, err := IsSticky(s)
	return err == nil && ok
}

// ImmortalHeadPosition reports whether the i-th (1-based) position of the
// head of σ is immortal w.r.t. T (Section 6.1): the variable at that head
// position is a frontier variable that is not marked in T. A term landing at
// an immortal position is propagated forever by sticky sets. Positions
// holding existential variables are never immortal (the fresh null may die).
func (m *Marking) ImmortalHeadPosition(t TGD, i int) bool {
	head := t.HeadAtom()
	v := head.Arg(i)
	if !t.Frontier().Has(v) {
		return false
	}
	return !m.marked.Has(v)
}
