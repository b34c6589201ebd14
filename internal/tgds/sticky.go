package tgds

import (
	"fmt"
	"slices"

	"airct/internal/logic"
)

// Marking is the result of the stickiness marking procedure of Section 2:
// the set of body variables of a TGD set that are "marked in T". Because
// NewSet standardises TGDs apart, a variable identifies its TGD, so the
// marking is a single variable set. It is held by the set's compiled slots
// (Set.Compiled).
type Marking struct {
	set       *Set
	marked    []bool // by set-wide slot; existential slots stay false
	violation *StickyViolation
}

// ComputeMarking runs the inductive marking procedure to fixpoint:
//
//  1. a body variable that does not occur in the head of its TGD is marked;
//  2. if head(σ) = R(t̄) and x ∈ t̄ occurs in the body of σ, and there is
//     σ′ ∈ T with an atom R(t̄′) in its body such that every variable of t̄′
//     at a position of pos(R(t̄), x) is marked, then x is marked.
//
// The fixpoint is computed in one worklist pass over the set's compiled
// slots. Each candidate of rule 2 (a TGD's frontier slot x, with
// pos(R(t̄), x)) is indexed under every position (R, i) of pos(R(t̄), x).
// When a slot is marked, its body occurrences are visited once: an
// occurrence at position i of an atom R(t̄′) re-checks only the candidates
// indexed under (R, i), and marks one whose positions in t̄′ all hold
// marked slots. The last of those slots to be marked visits that atom at
// one of them, so every variable rule 2 marks is found; the result is the
// least fixpoint. Every index is a dense array over position or slot IDs.
//
// It requires a single-head set (stickiness is defined for class S, which is
// single-head) and returns an error otherwise.
func ComputeMarking(s *Set) (*Marking, error) {
	if !s.IsSingleHead() {
		return nil, fmt.Errorf("tgds: stickiness marking requires single-head TGDs")
	}
	c := s.Compiled()
	// occurrence is a body argument: rule, body atom and 0-based argument.
	type occurrence struct{ rule, atom, arg int32 }
	// headAt lists each frontier slot's head arguments (pos(R(t̄), x),
	// 0-based), byPos each position's candidates, and occs each body
	// slot's occurrences.
	frontierHeads := func(put func(r *Rule, x int32, i int)) {
		for ri := range c.Rules {
			r := &c.Rules[ri]
			for i, x := range r.Head[0].Slots {
				if x < r.NBody {
					put(r, x, i)
				}
			}
		}
	}
	headAt := BuildCSR(c.NumSlots, func(put func(int32, int32)) {
		frontierHeads(func(r *Rule, x int32, i int) { put(r.Base+x, int32(i)) })
	})
	byPos := BuildCSR(c.NumPositions(), func(put func(int32, int32)) {
		frontierHeads(func(r *Rule, x int32, i int) { put(c.Pos(r.Head[0], i), r.Base+x) })
	})
	occs := BuildCSR(c.NumSlots, func(put func(int32, occurrence)) {
		for ri, r := range c.Rules {
			for ai, a := range r.Body {
				for i, x := range a.Slots {
					put(r.Base+x, occurrence{rule: int32(ri), atom: int32(ai), arg: int32(i)})
				}
			}
		}
	})
	marked := make([]bool, c.NumSlots)
	var queue []int32
	for _, r := range c.Rules {
		for x := range r.NBody {
			if !r.Frontier[x] {
				marked[r.Base+x] = true // rule 1
				queue = append(queue, r.Base+x)
			}
		}
	}
	for len(queue) > 0 {
		y := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, o := range occs.At(y) {
			r := &c.Rules[o.rule]
			a := r.Body[o.atom]
			for _, x := range byPos.At(c.Pos(a, int(o.arg))) {
				if !marked[x] && allMarked(a, r.Base, headAt.At(x), marked) {
					marked[x] = true // rule 2
					queue = append(queue, x)
				}
			}
		}
	}
	m := &Marking{set: s, marked: marked}
	m.violation = m.findViolation(c)
	return m, nil
}

// allMarked reports whether a, a body atom of the rule whose slot 0 has
// the set-wide ID base, holds a marked slot at every one of the given
// 0-based arguments.
func allMarked(a SlotAtom, base int32, args []int32, marked []bool) bool {
	for _, i := range args {
		if !marked[base+a.Slots[i]] {
			return false
		}
	}
	return true
}

// MarkedVars returns the marked variables in sorted order.
func (m *Marking) MarkedVars() []logic.Term {
	var out []logic.Term
	for _, r := range m.set.Compiled().Rules {
		for x, v := range r.Vars[:r.NBody] {
			if m.marked[r.Base+int32(x)] {
				out = append(out, v)
			}
		}
	}
	logic.SortTerms(out)
	return out
}

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

func (m *Marking) findViolation(c *Compiled) *StickyViolation {
	var count []int32
	for ti, r := range c.Rules {
		count = slices.Grow(count[:0], int(r.NBody))[:r.NBody]
		clear(count)
		for _, a := range r.Body {
			for _, x := range a.Slots {
				count[x]++
			}
		}
		// Body slots are in name order, so the first is the least.
		for x, n := range count {
			if n > 1 && m.marked[r.Base+int32(x)] {
				return &StickyViolation{TGD: m.set.TGDs[ti], Var: r.Vars[x]}
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
// head of the tgd-th TGD is immortal w.r.t. T (Section 6.1): the variable
// at that head position is a frontier variable that is not marked in T. A
// term landing at an immortal position is propagated forever by sticky
// sets. Positions holding existential variables are never immortal (the
// fresh null may die).
func (m *Marking) ImmortalHeadPosition(tgd, i int) bool {
	r := &m.set.Compiled().Rules[tgd]
	x := r.Head[0].Slots[i-1]
	return x < r.NBody && !m.marked[r.Base+x]
}
