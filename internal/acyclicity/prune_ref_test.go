package acyclicity

import (
	"airct/internal/jointree"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// referenceNeverFires is the map-based fold neverFires replaced, kept as
// its oracle: GYO on the body's term sets (jointree.IsAcyclic), then the
// generic homomorphism search from the head into the body with the
// frontier bound to itself.
func referenceNeverFires(t tgds.TGD) bool {
	if !jointree.IsAcyclic(t.Body) {
		return false
	}
	base := logic.NewSubstitution()
	for v := range t.Frontier() {
		base.Bind(v, v)
	}
	return logic.HasHomomorphism(t.Head, base, logic.NewSliceSource(t.Body))
}

// referenceNeverFiring is NeverFiring over referenceNeverFires.
func referenceNeverFiring(set *tgds.Set) []int {
	var out []int
	for i, t := range set.TGDs {
		if referenceNeverFires(t) {
			out = append(out, i)
		}
	}
	return out
}
