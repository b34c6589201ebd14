// Package chase implements the chase procedure of Section 3: triggers and
// active triggers (Definition 3.1), and three chase variants — oblivious,
// semi-oblivious, and restricted (a.k.a. standard) — with pluggable trigger
// strategies, budgets, and full derivation recording. Engines accept
// multi-head TGDs; the paper's classes are single-head, but the
// Fairness-Theorem counterexample (Example B.1) requires multi-head support.
package chase

import (
	"fmt"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// Trigger is a pair (σ, h): a TGD of the set together with a homomorphism
// from its body into an instance (Definition 3.1). TGDIndex identifies σ
// within its Set; H binds exactly the body variables.
type Trigger struct {
	TGDIndex int
	TGD      tgds.TGD
	H        logic.Substitution
}

// Key returns a canonical identity for the trigger: the TGD index plus the
// body-variable bindings. Two applications of the same TGD with the same
// homomorphism are the same trigger. This is the debug/test rendering of
// trigger identity — the engine dedups triggers by interned (TGD index,
// TermID tuple) keys and never builds these strings.
func (tr Trigger) Key() string {
	return fmt.Sprintf("%d|%s", tr.TGDIndex, tr.H.Restrict(tr.TGD.BodyVars()).Key())
}

// String renders the trigger as (σ, h).
func (tr Trigger) String() string {
	return fmt.Sprintf("(%s, %s)", tr.TGD.Label, tr.H.Restrict(tr.TGD.BodyVars()))
}

// CompareTriggers orders triggers canonically: by TGD index, then by
// componentwise comparison of the body bindings (Substitution.Compare). It
// is the no-allocation replacement for comparing Key() strings.
func CompareTriggers(a, b Trigger) int {
	if a.TGDIndex != b.TGDIndex {
		if a.TGDIndex < b.TGDIndex {
			return -1
		}
		return 1
	}
	return a.H.Compare(b.H)
}

// TriggerInterner interns symbolic triggers to dense IDs by their
// (TGD index, body binding) identity — the ID plane of Trigger.Key(). One
// interner serves one TGD set (TGD indexes key the sorted-body-variable
// cache) and has a single writer. Dense IDs are minted from 0 in first-seen
// order, so callers index side tables with plain slices.
type TriggerInterner struct {
	tab  *logic.Interner
	tup  *logic.TupleTable
	vars map[int][]logic.Term // sorted body variables per TGD index
	buf  []uint32
}

// NewTriggerInterner returns an empty trigger interner.
func NewTriggerInterner() *TriggerInterner {
	return &TriggerInterner{
		tab:  logic.NewInterner(),
		tup:  logic.NewTupleTable(16),
		vars: make(map[int][]logic.Term),
	}
}

// Intern returns the dense ID of the trigger's identity and whether it was
// new — the "seen before?" answer, with no key string built.
func (ti *TriggerInterner) Intern(tr Trigger) (logic.TupleID, bool) {
	vars, ok := ti.vars[tr.TGDIndex]
	if !ok {
		vars = tr.TGD.BodyVars().Sorted()
		ti.vars[tr.TGDIndex] = vars
	}
	ti.buf = ti.buf[:0]
	ti.buf = append(ti.buf, uint32(tr.TGDIndex))
	for _, v := range vars {
		ti.buf = append(ti.buf, uint32(ti.tab.InternTerm(tr.H.ApplyTerm(v))))
	}
	return ti.tup.Intern(ti.buf)
}

// NullFactory creates the nulls for trigger results. It names each null
// after the trigger and variable that invent it, the paper's c^{σ,h}_x
// (Definition 3.1): the same trigger always yields the same null, no matter
// when or in which derivation it is applied. Names are interned to short
// identifiers — (trigger ID, variable ID) keys via a TriggerInterner — so
// NullFor renders no strings. It is owned by a single engine run and is not
// safe for concurrent use.
type NullFactory struct {
	namer *logic.FreshNamer
	trigs *TriggerInterner
	byKey map[uint64]logic.Term // (trigger TupleID << 32 | var TermID) -> null
}

// NewNullFactory returns an empty factory.
func NewNullFactory() *NullFactory {
	return &NullFactory{
		namer: logic.NewFreshNamer("n"),
		trigs: NewTriggerInterner(),
		byKey: make(map[uint64]logic.Term),
	}
}

// NullFor returns the null c^{σ,h}_x for the trigger and existential
// variable. Repeated calls with the same arguments return the same null.
func (f *NullFactory) NullFor(tr Trigger, x logic.Term) logic.Term {
	tid, _ := f.trigs.Intern(tr)
	xid := f.trigs.tab.InternTerm(x)
	key := uint64(uint32(tid))<<32 | uint64(uint32(xid))
	if n, ok := f.byKey[key]; ok {
		return n
	}
	n := f.namer.NextNull()
	f.byKey[key] = n
	return n
}

// Result computes result(σ,h): the head atoms instantiated with h on the
// frontier and fresh nulls on the existential variables (Definition 3.1,
// extended pointwise to multi-head TGDs — all head atoms share the same
// null assignment).
func Result(tr Trigger, nulls *NullFactory) []logic.Atom {
	v := logic.NewSubstitution()
	frontier := tr.TGD.Frontier()
	// Sorted iteration pins the null-invention order: the existential
	// variables of a new trigger receive fresh names in term order,
	// matching the engine's interned path.
	for _, x := range tr.TGD.HeadVars().Sorted() {
		if frontier.Has(x) {
			v.Bind(x, tr.H.ApplyTerm(x))
		} else {
			v.Bind(x, nulls.NullFor(tr, x))
		}
	}
	return v.ApplyAtoms(tr.TGD.Head)
}

// FrontierTerms returns fr(result(σ,h)) for a single-head trigger: the
// terms of the result atom sitting at positions of ⋃_{x∈fr(σ)}
// pos(head(σ), x) — the propagated (not invented) terms.
func FrontierTerms(tr Trigger) logic.TermSet {
	out := make(logic.TermSet)
	if !tr.TGD.IsSingleHead() {
		for x := range tr.TGD.Frontier() {
			out[tr.H.ApplyTerm(x)] = struct{}{}
		}
		return out
	}
	head := tr.TGD.HeadAtom()
	frontier := tr.TGD.Frontier()
	for _, t := range head.Args {
		if t.IsVar() && frontier.Has(t) {
			out[tr.H.ApplyTerm(t)] = struct{}{}
		}
	}
	return out
}

// IsActive reports whether the trigger is active on the source: there is no
// extension h′ of h|fr(σ) with h′(head(σ)) ⊆ I (Definition 3.1).
func IsActive(tr Trigger, src logic.AtomSource) bool {
	base := tr.H.Restrict(tr.TGD.Frontier())
	return logic.FindHomomorphism(tr.TGD.Head, base, src) == nil
}

// Stops reports whether the atom α stops the produced atom β = result(σ,h)
// of the trigger (the ≺s relation of Section 3.1): there is a homomorphism
// h′ with h′(β) = α that fixes every frontier term of β. frontier is
// fr(result(σ,h)) as computed by FrontierTerms.
func Stops(alpha, beta logic.Atom, frontier logic.TermSet) bool {
	if alpha.Pred != beta.Pred {
		return false
	}
	h := make(map[logic.Term]logic.Term, len(beta.Args))
	for i, from := range beta.Args {
		to := alpha.Args[i]
		if from.IsConst() || frontier.Has(from) {
			if from != to {
				return false
			}
			continue
		}
		if prev, ok := h[from]; ok {
			if prev != to {
				return false
			}
			continue
		}
		h[from] = to
	}
	return true
}

// NewTrigger builds a trigger from a TGD (with its index in the set) and a
// body homomorphism. The substitution is restricted to the body variables.
func NewTrigger(idx int, t tgds.TGD, h logic.Substitution) Trigger {
	return Trigger{TGDIndex: idx, TGD: t, H: h.Restrict(t.BodyVars())}
}

// AllTriggers enumerates every trigger for the set on the source, in a
// deterministic order (by TGD index, then by substitution key).
func AllTriggers(set *tgds.Set, src logic.AtomSource) []Trigger {
	var out []Trigger
	for i, t := range set.TGDs {
		homs := logic.AllHomomorphisms(t.Body, nil, src)
		logic.SortSubstitutions(homs)
		for _, h := range homs {
			out = append(out, NewTrigger(i, t, h))
		}
	}
	return out
}

// ActiveTriggers enumerates the active triggers for the set on the source.
func ActiveTriggers(set *tgds.Set, src logic.AtomSource) []Trigger {
	all := AllTriggers(set, src)
	out := all[:0]
	for _, tr := range all {
		if IsActive(tr, src) {
			out = append(out, tr)
		}
	}
	return out
}

// TriggersInvolving enumerates the triggers whose body uses the given atom
// at some body-atom position — the semi-naive delta used by the engines
// when a new atom arrives.
func TriggersInvolving(set *tgds.Set, src logic.AtomSource, atom logic.Atom) []Trigger {
	var out []Trigger
	seen := NewTriggerInterner()
	for i, t := range set.TGDs {
		for j, bodyAtom := range t.Body {
			if bodyAtom.Pred != atom.Pred {
				continue
			}
			base := logic.NewSubstitution()
			okBind := true
			for k, v := range bodyAtom.Args {
				if bound, ok := base[v]; ok {
					if bound != atom.Args[k] {
						okBind = false
						break
					}
					continue
				}
				base.Bind(v, atom.Args[k])
			}
			if !okBind {
				continue
			}
			rest := make([]logic.Atom, 0, len(t.Body)-1)
			rest = append(rest, t.Body[:j]...)
			rest = append(rest, t.Body[j+1:]...)
			homs := logic.AllHomomorphisms(rest, base, src)
			logic.SortSubstitutions(homs)
			for _, h := range homs {
				tr := NewTrigger(i, t, h)
				if _, isNew := seen.Intern(tr); !isNew {
					continue
				}
				out = append(out, tr)
			}
		}
	}
	return out
}

// Violations returns the active triggers grouped per TGD label; a
// convenience for error messages and fairness reports.
func Violations(set *tgds.Set, inst *instance.Instance) map[string]int {
	out := make(map[string]int)
	for _, tr := range ActiveTriggers(set, inst) {
		out[tr.TGD.Label]++
	}
	return out
}
