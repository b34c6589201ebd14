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
// It requires a single-head set (stickiness is defined for class S, which is
// single-head) and returns an error otherwise.
func ComputeMarking(s *Set) (*Marking, error) {
	if !s.IsSingleHead() {
		return nil, fmt.Errorf("tgds: stickiness marking requires single-head TGDs")
	}
	marked := make(logic.TermSet)

	// Base step.
	for _, t := range s.TGDs {
		headVars := t.HeadVars()
		for v := range t.BodyVars() {
			if !headVars.Has(v) {
				marked[v] = struct{}{}
			}
		}
	}

	// Propagation to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, t := range s.TGDs {
			head := t.HeadAtom()
			bodyVars := t.BodyVars()
			for v := range bodyVars {
				if marked.Has(v) || !head.HasTerm(v) {
					continue
				}
				positions := head.PositionsOf(v)
				if propagatesMark(s, head.Pred, positions, marked) {
					marked[v] = struct{}{}
					changed = true
				}
			}
		}
	}
	m := &Marking{set: s, marked: marked}
	m.violation = m.findViolation()
	return m, nil
}

// propagatesMark reports whether some TGD of s has a body atom with
// predicate pred whose variables at all the given positions are marked.
func propagatesMark(s *Set, pred logic.Predicate, positions []int, marked logic.TermSet) bool {
	for _, t := range s.TGDs {
		for _, a := range t.Body {
			if a.Pred != pred {
				continue
			}
			all := true
			for _, i := range positions {
				if !marked.Has(a.Arg(i)) {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
	}
	return false
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
