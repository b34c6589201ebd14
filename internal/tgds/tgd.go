// Package tgds implements (single-head) tuple-generating dependencies and
// the syntactic classes the paper studies: guarded TGDs (class G, Calì,
// Gottlob & Kifer), sticky sets (class S, Calì, Gottlob & Pieris), and
// linear TGDs. Multi-head TGDs are representable — the chase engines accept
// them, and the Fairness-Theorem counterexample (Example B.1) needs them —
// but every class predicate and decision procedure that the paper states
// for single-head TGDs rejects multi-head inputs explicitly.
package tgds

import (
	"fmt"
	"strings"
	"sync"

	"airct/internal/logic"
)

// TGD is a tuple-generating dependency
//
//	∀x̄∀ȳ (φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄))
//
// written body → head. TGDs are constant-free (paper, Section 2): bodies and
// heads contain variables only. Head is a slice to accommodate multi-head
// TGDs; the paper's objects are single-head and IsSingleHead distinguishes
// them.
type TGD struct {
	Label string // optional human-readable name, e.g. "σ1"
	Body  []logic.Atom
	Head  []logic.Atom
}

// New constructs a TGD and validates it.
func New(label string, body, head []logic.Atom) (TGD, error) {
	t := TGD{Label: label, Body: body, Head: head}
	if err := t.Validate(); err != nil {
		return TGD{}, err
	}
	return t, nil
}

// MustNew is New that panics on error; for literals in tests and examples.
func MustNew(label string, body, head []logic.Atom) TGD {
	t, err := New(label, body, head)
	if err != nil {
		panic(err)
	}
	return t
}

// Validate checks the structural invariants: non-empty body and head, and
// variables only (TGDs are constant-free).
func (t TGD) Validate() error {
	if len(t.Body) == 0 {
		return fmt.Errorf("tgds: %s has an empty body", t.name())
	}
	if len(t.Head) == 0 {
		return fmt.Errorf("tgds: %s has an empty head", t.name())
	}
	for _, a := range append(append([]logic.Atom{}, t.Body...), t.Head...) {
		for _, term := range a.Args {
			if !term.IsVar() {
				return fmt.Errorf("tgds: %s contains non-variable term %v (TGDs are constant-free)", t.name(), term)
			}
		}
	}
	return nil
}

func (t TGD) name() string {
	if t.Label != "" {
		return t.Label
	}
	return "TGD " + t.String()
}

// IsSingleHead reports whether the head is a single atom, the paper's
// standing assumption.
func (t TGD) IsSingleHead() bool { return len(t.Head) == 1 }

// HeadAtom returns the unique head atom of a single-head TGD. It panics on
// multi-head TGDs; callers must check IsSingleHead first.
func (t TGD) HeadAtom() logic.Atom {
	if !t.IsSingleHead() {
		panic(fmt.Sprintf("tgds: HeadAtom on multi-head %s", t.name()))
	}
	return t.Head[0]
}

// BodyVars returns the variables occurring in the body.
func (t TGD) BodyVars() logic.TermSet { return logic.VarsOf(t.Body) }

// HeadVars returns the variables occurring in the head.
func (t TGD) HeadVars() logic.TermSet { return logic.VarsOf(t.Head) }

// Frontier returns fr(σ): the variables occurring in both body and head.
func (t TGD) Frontier() logic.TermSet {
	body := t.BodyVars()
	out := make(logic.TermSet)
	for v := range t.HeadVars() {
		if body.Has(v) {
			out[v] = struct{}{}
		}
	}
	return out
}

// ExistentialVars returns z̄: head variables that do not occur in the body.
func (t TGD) ExistentialVars() logic.TermSet {
	body := t.BodyVars()
	out := make(logic.TermSet)
	for v := range t.HeadVars() {
		if !body.Has(v) {
			out[v] = struct{}{}
		}
	}
	return out
}

// IsLinear reports whether the body is a single atom.
func (t TGD) IsLinear() bool { return len(t.Body) == 1 }

// Guard returns the guard of a guarded TGD: the left-most body atom that
// contains every body variable (the paper fixes the left-most when several
// qualify). The second result is false when the TGD is not guarded.
func (t TGD) Guard() (logic.Atom, bool) {
	vars := t.BodyVars()
	for _, a := range t.Body {
		covers := true
		for v := range vars {
			if !a.HasTerm(v) {
				covers = false
				break
			}
		}
		if covers {
			return a, true
		}
	}
	return logic.Atom{}, false
}

// IsGuarded reports whether some body atom guards all body variables.
func (t TGD) IsGuarded() bool {
	_, ok := t.Guard()
	return ok
}

// GuardIndex returns the index of the guard in Body, or -1.
func (t TGD) GuardIndex() int {
	g, ok := t.Guard()
	if !ok {
		return -1
	}
	for i, a := range t.Body {
		if a.Equal(g) {
			return i
		}
	}
	return -1
}

// Rename returns a copy of the TGD with every variable renamed via the
// namer, keeping shared variables shared. Used to standardise sets apart.
func (t TGD) Rename(namer *logic.FreshNamer) TGD {
	all := append(append([]logic.Atom{}, t.Body...), t.Head...)
	ren := logic.NewSubstitution()
	for _, v := range logic.VarsOf(all).Sorted() {
		ren.Bind(v, namer.NextVar())
	}
	return TGD{
		Label: t.Label,
		Body:  ren.ApplyAtoms(t.Body),
		Head:  ren.ApplyAtoms(t.Head),
	}
}

// String renders the TGD in the library's concrete syntax:
// "R(X,Y), P(Y,Z) -> T(X,Y,W)". Existential quantification is implicit in
// head variables that do not occur in the body.
func (t TGD) String() string {
	return logic.AtomsString(t.Body) + " -> " + logic.AtomsString(t.Head)
}

// SatisfiedBy reports whether the instance (as an atom source) satisfies the
// TGD: every homomorphism from the body extends, on the frontier, to a
// homomorphism of the head.
func (t TGD) SatisfiedBy(src logic.AtomSource) bool {
	frontier := t.Frontier()
	ok := true
	logic.ForEachHomomorphism(t.Body, nil, src, func(h logic.Substitution) bool {
		base := h.Restrict(frontier)
		if logic.FindHomomorphism(t.Head, base, src) == nil {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Set is a finite set of dependencies — TGDs plus (optionally) EGDs —
// ordered. The order is significant only for determinism (trigger
// enumeration, printing). Most of the paper's machinery is TGD-only: the
// class predicates (IsGuarded, IsLinear, IsSticky) report false as soon as
// an EGD is present, and TGD-only consumers must gate on HasEGDs.
type Set struct {
	TGDs []TGD
	EGDs []EGD

	fpOnce sync.Once
	fp     logic.Fingerprint

	markOnce sync.Once
	marking  *Marking
	markErr  error
}

// NewSet builds a set, validating every member and standardising the TGDs
// apart (no two TGDs share a variable, the paper's w.l.o.g. convention for
// the stickiness marking).
func NewSet(tgds ...TGD) (*Set, error) {
	return NewSetWithEGDs(tgds, nil)
}

// NewSetWithEGDs builds a set of TGDs and EGDs, validating every member and
// standardising all dependencies apart. Unlabelled TGDs are named σ1, σ2,
// …; unlabelled EGDs ε1, ε2, ….
func NewSetWithEGDs(tgds []TGD, egds []EGD) (*Set, error) {
	namer := logic.NewFreshNamer("V")
	out := make([]TGD, 0, len(tgds))
	for i, t := range tgds {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("tgds: set member %d: %w", i, err)
		}
		if t.Label == "" {
			t.Label = fmt.Sprintf("σ%d", i+1)
		}
		out = append(out, t.Rename(namer))
	}
	eout := make([]EGD, 0, len(egds))
	for i, e := range egds {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("tgds: set EGD %d: %w", i, err)
		}
		if e.Label == "" {
			e.Label = fmt.Sprintf("ε%d", i+1)
		}
		eout = append(eout, e.Rename(namer))
	}
	if len(eout) == 0 {
		eout = nil
	}
	return &Set{TGDs: out, EGDs: eout}, nil
}

// MustSet is NewSet that panics on error.
func MustSet(tgds ...TGD) *Set {
	s, err := NewSet(tgds...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of TGDs. EGDs are counted by NumEGDs; most
// consumers predate EGD support and reason about the TGD part only.
func (s *Set) Len() int { return len(s.TGDs) }

// NumEGDs returns the number of EGDs.
func (s *Set) NumEGDs() int { return len(s.EGDs) }

// HasEGDs reports whether the set carries any equality-generating
// dependency. TGD-only machinery (the syntactic classes beyond full and
// weak acyclicity, the guarded/sticky deciders, the ∀∃ search, the
// non-restricted chase variants) must gate on this.
func (s *Set) HasEGDs() bool { return len(s.EGDs) > 0 }

// setSeed starts every set fingerprint.
var setSeed = logic.Fingerprint{Hi: 0x243f6a8885a308d3, Lo: 0x13198a2e03707344}

// Fingerprint returns the set-level content fingerprint: an order-sensitive
// mix of every member's rule fingerprint (label, body, head — see
// logic.FingerprintRule). Two sets fingerprint equal exactly when they hold
// the same rules in the same order, which is the identity under which chase
// runs and decision verdicts are reproducible — the TGD-set half of the
// cross-run chase cache's key (internal/chase.Cache). Computed once and
// memoised; safe for concurrent use. Callers must not mutate TGDs after
// the first call.
func (s *Set) Fingerprint() logic.Fingerprint {
	s.fpOnce.Do(func() {
		fp := setSeed
		for i, t := range s.TGDs {
			fp = fp.MixUint64(uint64(i)).Mix(logic.FingerprintRule(t.Label, t.Body, t.Head))
		}
		// EGDs enter under a distinct salt and a synthetic "=" head atom, so
		// a set with EGDs never fingerprints equal to its TGD-only part and
		// EGD order/labels are covered like TGD ones.
		for i, e := range s.EGDs {
			fp = fp.MixUint64(0x9e3779b97f4a7c15 + uint64(i)).
				Mix(logic.FingerprintRule(e.Label, e.Body, []logic.Atom{e.eqAtom()}))
		}
		s.fp = fp
	})
	return s.fp
}

// Schema returns sch(T): every predicate occurring in the set.
func (s *Set) Schema() *logic.Schema {
	sch := logic.NewSchema()
	for _, t := range s.TGDs {
		for _, a := range t.Body {
			sch.Add(a.Pred)
		}
		for _, a := range t.Head {
			sch.Add(a.Pred)
		}
	}
	for _, e := range s.EGDs {
		for _, a := range e.Body {
			sch.Add(a.Pred)
		}
	}
	return sch
}

// IsSingleHead reports whether every member is single-head.
func (s *Set) IsSingleHead() bool {
	for _, t := range s.TGDs {
		if !t.IsSingleHead() {
			return false
		}
	}
	return true
}

// IsGuarded reports whether every member is guarded (class G requires
// single-head as well; the paper's G is a class of single-head TGDs). A set
// with EGDs is never in G: the guarded decision procedure is TGD-only.
func (s *Set) IsGuarded() bool {
	if s.HasEGDs() || !s.IsSingleHead() {
		return false
	}
	for _, t := range s.TGDs {
		if !t.IsGuarded() {
			return false
		}
	}
	return true
}

// IsLinear reports whether every member is linear and single-head. A set
// with EGDs is never linear (the class is TGD-only).
func (s *Set) IsLinear() bool {
	if s.HasEGDs() || !s.IsSingleHead() {
		return false
	}
	for _, t := range s.TGDs {
		if !t.IsLinear() {
			return false
		}
	}
	return true
}

// SatisfiedBy reports whether the source satisfies every dependency in the
// set — TGDs and EGDs.
func (s *Set) SatisfiedBy(src logic.AtomSource) bool {
	for _, t := range s.TGDs {
		if !t.SatisfiedBy(src) {
			return false
		}
	}
	for _, e := range s.EGDs {
		if !e.SatisfiedBy(src) {
			return false
		}
	}
	return true
}

// String renders the set one dependency per line, TGDs first.
func (s *Set) String() string {
	var b strings.Builder
	for i, t := range s.TGDs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.Label)
		b.WriteString(": ")
		b.WriteString(t.String())
	}
	for i, e := range s.EGDs {
		if i > 0 || len(s.TGDs) > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Label)
		b.WriteString(": ")
		b.WriteString(e.String())
	}
	return b.String()
}
