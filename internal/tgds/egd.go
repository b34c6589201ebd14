package tgds

import (
	"fmt"

	"airct/internal/logic"
)

// EGD is an equality-generating dependency
//
//	∀x̄ (φ(x̄) → x = y)
//
// written body → x = y, with x and y variables occurring in the body. Like
// TGDs, EGDs are constant-free. An EGD never generates atoms: a trigger
// (homomorphism h of the body with h(x) ≠ h(y)) forces the two image terms
// equal — the chase engine merges them by rewriting the instance (a null is
// absorbed by a constant, a younger null by an older one) and the chase
// *fails* when h(x) and h(y) are distinct constants.
type EGD struct {
	Label string // optional human-readable name, e.g. "ε1"
	Body  []logic.Atom
	X, Y  logic.Term
}

// NewEGD constructs an EGD and validates it.
func NewEGD(label string, body []logic.Atom, x, y logic.Term) (EGD, error) {
	e := EGD{Label: label, Body: body, X: x, Y: y}
	if err := e.Validate(); err != nil {
		return EGD{}, err
	}
	return e, nil
}

// Validate checks the structural invariants: non-empty body of
// variable-only atoms, and both equated terms are variables occurring in
// the body (a safe EGD — every trigger grounds both sides).
func (e EGD) Validate() error {
	if len(e.Body) == 0 {
		return fmt.Errorf("tgds: %s has an empty body", e.name())
	}
	for _, a := range e.Body {
		for _, term := range a.Args {
			if !term.IsVar() {
				return fmt.Errorf("tgds: %s contains non-variable term %v (EGDs are constant-free)", e.name(), term)
			}
		}
	}
	body := logic.VarsOf(e.Body)
	for _, t := range []logic.Term{e.X, e.Y} {
		if !t.IsVar() {
			return fmt.Errorf("tgds: %s equates non-variable term %v", e.name(), t)
		}
		if !body.Has(t) {
			return fmt.Errorf("tgds: %s equates variable %v that does not occur in the body", e.name(), t)
		}
	}
	if e.X == e.Y {
		return fmt.Errorf("tgds: %s equates a variable with itself", e.name())
	}
	return nil
}

func (e EGD) name() string {
	if e.Label != "" {
		return e.Label
	}
	return "EGD " + e.String()
}

// BodyVars returns the variables occurring in the body.
func (e EGD) BodyVars() logic.TermSet { return logic.VarsOf(e.Body) }

// Rename returns a copy with every variable renamed via the namer, keeping
// shared variables shared. Used to standardise sets apart.
func (e EGD) Rename(namer *logic.FreshNamer) EGD {
	r := newRenamer(namer, e.Body)
	return EGD{Label: e.Label, Body: r.atoms(e.Body), X: r.term(e.X), Y: r.term(e.Y)}
}

// String renders the EGD in the library's concrete syntax:
// "R(X,Y), R(X,Z) -> Y = Z".
func (e EGD) String() string {
	return logic.AtomsString(e.Body) + " -> " + e.X.String() + " = " + e.Y.String()
}

// eqAtom is the synthetic head atom under which an EGD enters rule
// fingerprints: the reserved predicate "=" cannot be written in the
// concrete syntax, so no TGD fingerprint can collide with an EGD's.
func (e EGD) eqAtom() logic.Atom {
	return logic.NewAtom(logic.Pred("=", 2), e.X, e.Y)
}

// SatisfiedBy reports whether the source satisfies the EGD: every
// homomorphism of the body maps x and y to the same term.
func (e EGD) SatisfiedBy(src logic.AtomSource) bool {
	ok := true
	logic.ForEachHomomorphism(e.Body, nil, src, func(h logic.Substitution) bool {
		if h.ApplyTerm(e.X) != h.ApplyTerm(e.Y) {
			ok = false
			return false
		}
		return true
	})
	return ok
}
