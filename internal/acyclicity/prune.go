package acyclicity

// Never-firing TGD pruning — the portfolio's "jointree" Tier-0 stage.
//
// A TGD σ whose head folds into its own body — a homomorphism
// h : Head(σ) → Body(σ) that is the identity on the frontier fr(σ) — can
// never fire in ANY restricted chase of ANY instance: for every trigger
// (σ, h′) with Body(σ)h′ ⊆ I, the composition h′∘h maps Head(σ) into I
// while agreeing with h′ on the frontier, so the trigger is inactive
// (Definition 3.1). Removing such TGDs therefore preserves the restricted
// chase derivations of every instance exactly, and any termination proof
// for the pruned remainder — empty, existential-free, weakly acyclic or
// jointly acyclic — transfers to the original set verbatim.
//
// The fold check is a conjunctive-query containment test; it is attempted
// only when the body is an acyclic instance in the Definition 5.4 sense
// (GYO ear removal on the body hypergraph, jointree.Hypergraph), the class
// for which such joins are tractable. Cyclic bodies are skipped, which is
// sound: skipping only prunes less. Both steps run on the set's compiled
// slots: the hypergraph has one edge per body atom, its set of slots, and
// the fold maps head slots to body slots with every frontier slot fixed.

import (
	"slices"

	"airct/internal/jointree"
	"airct/internal/tgds"
)

// NeverFiring returns the indexes of the set's never-firing TGDs: those
// whose head folds into their own body by a homomorphism fixing the
// frontier (attempted only for jointree-acyclic bodies).
func NeverFiring(set *tgds.Set) []int {
	var out []int
	var f folder
	rules := set.Compiled().Rules
	for i := range rules {
		if f.neverFires(&rules[i]) {
			out = append(out, i)
		}
	}
	return out
}

// folder is neverFires' scratch, reused across the rules of one set.
type folder struct {
	body  jointree.Hypergraph
	img   []int32 // per existential slot: its body slot, -1 unmapped
	trail []int32
}

// neverFires reports whether the rule's body is acyclic, by GYO ear
// removal over its slot sets (a body of one or two atoms always passes),
// and its head folds into that body.
func (f *folder) neverFires(r *tgds.Rule) bool {
	if len(r.Body) > 2 {
		f.body.Reset(int(r.NBody))
		for _, a := range r.Body {
			f.body.AddEdge(a.Slots)
		}
		if !f.body.Acyclic(nil) {
			return false
		}
	}
	return f.folds(r)
}

// folds reports whether the head maps into the body by a homomorphism that
// fixes every frontier slot, backtracking over the head atoms in order.
func (f *folder) folds(r *tgds.Rule) bool {
	f.img = slices.Grow(f.img[:0], len(r.Vars))[:len(r.Vars)]
	for i := range f.img {
		f.img[i] = -1
	}
	f.trail = f.trail[:0]
	return f.fold(r, 0)
}

func (f *folder) fold(r *tgds.Rule, k int) bool {
	if k == len(r.Head) {
		return true
	}
	h := r.Head[k]
	for _, b := range r.Body {
		if b.Pred != h.Pred {
			continue
		}
		mark := len(f.trail)
		ok := true
		for i, x := range h.Slots {
			y := b.Slots[i]
			switch {
			case x < r.NBody:
				ok = x == y
			case f.img[x] < 0:
				f.img[x] = y
				f.trail = append(f.trail, x)
			default:
				ok = f.img[x] == y
			}
			if !ok {
				break
			}
		}
		if ok && f.fold(r, k+1) {
			return true
		}
		for _, x := range f.trail[mark:] {
			f.img[x] = -1
		}
		f.trail = f.trail[:mark]
	}
	return false
}

// PruneNeverFiring removes the never-firing TGDs and returns the remainder
// together with the removed indexes. The remainder is nil when every TGD
// was pruned (the chase of any instance stops immediately); removed is nil
// when nothing folds. The remainder's restricted chase derivations coincide
// with the original set's on every instance.
func PruneNeverFiring(set *tgds.Set) (*tgds.Set, []int) {
	removed := NeverFiring(set)
	if len(removed) == 0 {
		return set, nil
	}
	drop := make(map[int]bool, len(removed))
	for _, i := range removed {
		drop[i] = true
	}
	var keep []tgds.TGD
	for i, t := range set.TGDs {
		if !drop[i] {
			keep = append(keep, t)
		}
	}
	if len(keep) == 0 {
		return nil, removed
	}
	return tgds.MustSet(keep...), removed
}
