package sticky

import (
	"fmt"
	"maps"

	"airct/internal/chase"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// Caterpillar is a finite prefix of the paper's caterpillar (Definitions
// 6.2–6.4): legs L, body atoms α_0 … α_n, the trigger sequence
// (σ_i, h_i) for i = 1…n, and the body-atom indices γ_i matched by the
// previous path atom.
type Caterpillar struct {
	Legs     []logic.Atom
	Body     []logic.Atom
	Triggers []chase.Trigger
	Gammas   []int
}

// ValidateProto checks the proto-caterpillar conditions of Definition 6.2
// on the finite prefix: each (σ_i, h_i) is a trigger on L ∪ {α_{i-1}}, the
// designated body atom γ_i maps to α_{i-1}, and α_i realises
// result(σ_i, h_i) — frontier positions carry the propagated terms and
// existential positions carry terms fresh to everything before them,
// consistently per variable.
func (c *Caterpillar) ValidateProto(set *tgds.Set) error {
	if len(c.Body) == 0 {
		return fmt.Errorf("sticky: empty body")
	}
	if len(c.Triggers) != len(c.Body)-1 || len(c.Gammas) != len(c.Triggers) {
		return fmt.Errorf("sticky: %d body atoms need %d triggers, have %d/%d gammas",
			len(c.Body), len(c.Body)-1, len(c.Triggers), len(c.Gammas))
	}
	seenTerms := logic.TermsOf(c.Legs)
	maps.Copy(seenTerms, c.Body[0].Terms())
	for i, tr := range c.Triggers {
		prev, next := c.Body[i], c.Body[i+1]
		t := tr.TGD
		// Condition 1: trigger on L ∪ {α_i}.
		base := logic.NewSliceSource(append(append([]logic.Atom{}, c.Legs...), prev))
		if logic.FindHomomorphism(t.Body, tr.H, base) == nil {
			return fmt.Errorf("sticky: step %d: (σ,h) is not a trigger on L ∪ {α_%d}", i+1, i)
		}
		// Condition 2: α_i = h(γ_{i+1}).
		gamma := t.Body[c.Gammas[i]]
		if !gamma.Apply(tr.H).Equal(prev) {
			return fmt.Errorf("sticky: step %d: h(γ) = %v ≠ α_%d = %v", i+1, gamma.Apply(tr.H), i, prev)
		}
		// Condition 3: α_{i+1} realises result(σ, h).
		head := t.HeadAtom()
		if next.Pred != head.Pred {
			return fmt.Errorf("sticky: step %d: head predicate mismatch", i+1)
		}
		frontier := t.Frontier()
		fresh := make(map[logic.Term]logic.Term) // existential var -> term
		for p := 1; p <= head.Pred.Arity; p++ {
			v := head.Arg(p)
			got := next.Arg(p)
			if frontier.Has(v) {
				if want := tr.H.ApplyTerm(v); got != want {
					return fmt.Errorf("sticky: step %d: frontier position %d holds %v, want %v", i+1, p, got, want)
				}
				continue
			}
			if prev2, ok := fresh[v]; ok {
				if prev2 != got {
					return fmt.Errorf("sticky: step %d: existential %v inconsistent at position %d", i+1, v, p)
				}
				continue
			}
			if seenTerms.Has(got) {
				return fmt.Errorf("sticky: step %d: invented term %v at position %d is not fresh", i+1, got, p)
			}
			fresh[v] = got
		}
		maps.Copy(seenTerms, next.Terms())
	}
	return nil
}

// ValidateCaterpillar additionally checks the two stop-freedom conditions
// of Definition 6.3 on the prefix: no leg stops a body atom, and no body
// atom stops a later one.
func (c *Caterpillar) ValidateCaterpillar(set *tgds.Set) error {
	if err := c.ValidateProto(set); err != nil {
		return err
	}
	for i, tr := range c.Triggers {
		target := c.Body[i+1]
		frontier := chase.FrontierTerms(tr)
		for _, leg := range c.Legs {
			if chase.Stops(leg, target, frontier) {
				return fmt.Errorf("sticky: leg %v stops α_%d = %v", leg, i+1, target)
			}
		}
		for j := 0; j <= i; j++ {
			if chase.Stops(c.Body[j], target, frontier) {
				return fmt.Errorf("sticky: α_%d = %v stops α_%d = %v", j, c.Body[j], i+1, target)
			}
		}
	}
	return nil
}
