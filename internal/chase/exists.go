package chase

import (
	"airct/internal/instance"
	"airct/internal/tgds"
)

// ExistsResult reports the outcome of the ∀∃-style search (the paper's
// future-work question 3: is there a *finite* restricted chase derivation
// of D w.r.t. T?).
type ExistsResult struct {
	// Found is true when some trigger order reaches a fixpoint.
	Found bool
	// Derivation is a witnessing trigger sequence when Found.
	Derivation []Trigger
	// StatesVisited counts distinct instances explored.
	StatesVisited int
	// Exhausted is true when the search space was fully explored (so
	// Found = false is a proof that *every* derivation is infinite,
	// CT^res_∀∃ failure); false when a budget stopped the search.
	Exhausted bool
	// Cancelled is true when the search's context was cancelled before
	// the sweep finished (Exhausted is then false and the result carries
	// no semantic claim — only statistics).
	Cancelled bool
	// Stats counts the search's work.
	Stats SearchStats
	// Replayed is true when the result came from the cross-run cache
	// instead of a search: Stats then describe the recorded search, and
	// this call expanded no states.
	Replayed bool
}

// ExistsTerminatingDerivation searches the space of restricted chase
// derivations of D w.r.t. T for one that reaches a fixpoint. The
// restricted chase is order-sensitive: a program may admit both infinite
// and finite derivations (the engine's FIFO order can diverge where a
// smarter order terminates). The search explores instances
// breadth-preferring-small, memoising visited instance states by their
// order-independent fingerprint, and stops at maxStates distinct instances
// or maxAtoms per instance (0 = defaults 10_000 / 200). It is a
// convenience wrapper around SearchTerminatingDerivation with the
// SmallestFirst strategy (see internal/chase/search.go for the subsystem).
//
// This is a semi-decision helper for the paper's open question (3) —
// CT^res_∀∃ — not one of its theorems; it is exact on the explored space.
func ExistsTerminatingDerivation(db *instance.Database, set *tgds.Set, maxStates, maxAtoms int) *ExistsResult {
	return SearchTerminatingDerivation(db, set, SearchOptions{
		MaxStates: maxStates,
		MaxAtoms:  maxAtoms,
		Strategy:  SmallestFirst,
	})
}
