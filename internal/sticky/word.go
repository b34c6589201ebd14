// Package sticky implements the Section 6 machinery for sticky sets of
// single-head TGDs: caterpillars and their refinements (Definitions
// 6.2–6.8), caterpillar words over the alphabet Λ_T, and the deterministic
// Büchi automaton A_T of Appendix D.2 — the product of A_pc
// (proto-caterpillar / equality-type tracking), A_qc (quasi-caterpillar /
// stop-set tracking) and A_cc (connectivity / relay-position tracking),
// united over all seeds (e₀, Π₀). CT^res_∀∀(S) is decided by emptiness of
// A_T (Theorem 6.1): this is the paper's actual algorithm, implemented in
// full.
package sticky

import (
	"fmt"
	"strings"

	"airct/internal/tgds"
)

// Symbol is a letter of the caterpillar alphabet Λ_T: a TGD σ, a body atom
// γ ∈ body(σ) that the previous path atom must match, and a position set P
// of head(σ) — empty for ordinary steps, or the positions of one
// existential variable when the step is a pass-on point minting a new
// relay term.
type Symbol struct {
	TGDIndex int
	Gamma    int   // index into body(σ)
	P        []int // sorted 1-based head positions; nil for non-pass-on
}

// Key returns a canonical encoding.
func (s Symbol) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d/", s.TGDIndex, s.Gamma)
	for i, p := range s.P {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", p)
	}
	return b.String()
}

// Alphabet enumerates Λ_T for the set: every (σ, γ, P) with P either empty
// or pos(head(σ), x) for an existentially quantified x of σ.
func Alphabet(set *tgds.Set) []Symbol {
	var out []Symbol
	for ti, t := range set.TGDs {
		head := t.HeadAtom()
		for gi := range t.Body {
			out = append(out, Symbol{TGDIndex: ti, Gamma: gi})
			for _, x := range t.ExistentialVars().Sorted() {
				positions := head.PositionsOf(x)
				if len(positions) > 0 {
					out = append(out, Symbol{TGDIndex: ti, Gamma: gi, P: positions})
				}
			}
		}
	}
	return out
}
