package tgds

// This file collects the auxiliary syntactic classes beyond the paper's G
// and S: full (existential-free) TGDs, whose restricted chase trivially
// terminates on every database, and frontier-guardedness, the relaxation of
// guardedness that only asks the guard to cover the frontier.

// IsFull reports whether the TGD has no existential variables (a full,
// a.k.a. datalog, rule).
func (t TGD) IsFull() bool { return len(t.ExistentialVars()) == 0 }

// IsFrontierGuarded reports whether some body atom contains every frontier
// variable. Guarded TGDs are frontier-guarded; the converse fails.
func (t TGD) IsFrontierGuarded() bool {
	frontier := t.Frontier()
	for _, a := range t.Body {
		covers := true
		for v := range frontier {
			if !a.HasTerm(v) {
				covers = false
				break
			}
		}
		if covers {
			return true
		}
	}
	return false
}

// IsFull reports whether every TGD in the set is full. Full sets are in
// CT^res_∀∀ unconditionally: no nulls are ever invented, so every chase is
// bounded by the polynomial closure of the active domain.
func (s *Set) IsFull() bool {
	for _, t := range s.TGDs {
		if !t.IsFull() {
			return false
		}
	}
	return true
}

// IsFrontierGuarded reports whether every member is frontier-guarded and
// single-head.
func (s *Set) IsFrontierGuarded() bool {
	if !s.IsSingleHead() {
		return false
	}
	for _, t := range s.TGDs {
		if !t.IsFrontierGuarded() {
			return false
		}
	}
	return true
}
