// Package guarded implements the Section 5 machinery for single-head
// guarded TGDs: sideatom types, the guard-/side-parent structure, the
// remote-side-parent ("longs for") analysis and the Treeification Theorem's
// acyclic-database construction (Appendix C.2), abstract join trees
// (Definition 5.8) with their chaseable conditions (Definition 5.10), and a
// decision procedure for CT^res_∀∀(G).
//
// The paper decides CT^res_∀∀(G) by compiling the chaseable-abstract-join-
// tree property into an MSOL sentence over infinite trees (Lemma 5.12). A
// faithful MSOL-over-infinite-trees solver is non-elementary and out of
// scope for any implementation, so Decide replaces that final step with a
// bounded certificate search over the same objects — seed acyclic databases
// derived from the TGD bodies (the treeification viewpoint) chased with
// divergence-evidence detection on the guard forest. docs/ARCHITECTURE.md
// ("The guarded decider: a bounded search") documents the substitution and
// what it does not prove.
package guarded

import (
	"fmt"

	"airct/internal/logic"
)

// SideatomType is the paper's π = ⟨P, m, ξ⟩: a predicate P/n, the arity m
// of the guarded atom, and a mapping ξ from the positions of P to positions
// of the guard. An atom α is a π-sideatom of γ, written α ⊆π γ, when α's
// predicate is P, γ's arity is m, and α[i] = γ[ξ(i)] for every i.
type SideatomType struct {
	Pred  logic.Predicate
	Arity int   // arity of the guarded atom the type refers to
	Xi    []int // 1-based guard positions, one per position of Pred
}

// NewSideatomType validates and builds a sideatom type.
func NewSideatomType(pred logic.Predicate, arity int, xi []int) (SideatomType, error) {
	if len(xi) != pred.Arity {
		return SideatomType{}, fmt.Errorf("guarded: ξ has %d entries for %s", len(xi), pred)
	}
	for i, j := range xi {
		if j < 1 || j > arity {
			return SideatomType{}, fmt.Errorf("guarded: ξ(%d) = %d out of range 1..%d", i+1, j, arity)
		}
	}
	return SideatomType{Pred: pred, Arity: arity, Xi: xi}, nil
}

// IsSideatom reports α ⊆π γ.
func (p SideatomType) IsSideatom(alpha, gamma logic.Atom) bool {
	if alpha.Pred != p.Pred || gamma.Pred.Arity != p.Arity {
		return false
	}
	for i, j := range p.Xi {
		if alpha.Args[i] != gamma.Args[j-1] {
			return false
		}
	}
	return true
}

// Key returns a canonical encoding.
func (p SideatomType) Key() string {
	return fmt.Sprintf("%s|%d|%v", p.Pred, p.Arity, p.Xi)
}

// String renders the type.
func (p SideatomType) String() string {
	return fmt.Sprintf("⟨%s,%d,%v⟩", p.Pred, p.Arity, p.Xi)
}

// TypeOf computes the sideatom type of a concrete side atom relative to a
// concrete guard atom, when one exists: every term of alpha must occur in
// gamma (guardedness guarantees this for body atoms relative to the guard).
func TypeOf(alpha, gamma logic.Atom) (SideatomType, bool) {
	xi := make([]int, len(alpha.Args))
	for i, t := range alpha.Args {
		found := false
		for j, u := range gamma.Args {
			if t == u {
				xi[i] = j + 1
				found = true
				break
			}
		}
		if !found {
			return SideatomType{}, false
		}
	}
	return SideatomType{Pred: alpha.Pred, Arity: gamma.Pred.Arity, Xi: xi}, true
}

// BodyTypes represents a guarded TGD body as the paper does in Section 5.3:
// the guard atom plus one sideatom type per side atom (γ, π1, …, πm). The
// second result is false when the TGD is not guarded or a side atom
// mentions a variable outside the guard (impossible for guarded TGDs).
func BodyTypes(guard logic.Atom, sides []logic.Atom) ([]SideatomType, bool) {
	out := make([]SideatomType, 0, len(sides))
	for _, s := range sides {
		p, ok := TypeOf(s, guard)
		if !ok {
			return nil, false
		}
		out = append(out, p)
	}
	return out, true
}
