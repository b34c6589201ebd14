package sticky

import (
	"fmt"

	"airct/internal/logic"
	"airct/internal/tgds"
)

// Connectivity is the analysis of a concrete caterpillar prefix against
// Definitions 6.6–6.8: the relay terms and pass-on points of
// connectedness, the uniform bound between consecutive pass-on points, and
// the freeness of the term-equality structure.
type Connectivity struct {
	// RelayTerms is the chain c_0, c_1, … of relay terms found.
	RelayTerms []logic.Term
	// PassOnPoints is b_1 < b_2 < …: the body indices where each next
	// relay term is born.
	PassOnPoints []int
	// MaxGap is the largest distance between consecutive pass-on points —
	// finite prefixes of uniformly connected caterpillars keep this small
	// (Definition 6.7's d).
	MaxGap int
}

// AnalyzeConnectivity verifies the connectedness conditions of Definition
// 6.6 on a concrete caterpillar prefix, given the pass-on structure
// recorded in the generating symbols: relay[k] must occur in the frontier
// of every body atom between its birth and the birth of relay[k+1], and no
// relay term may sit at an immortal position. It returns the discovered
// relay structure or an explanatory error.
func AnalyzeConnectivity(cat *Caterpillar, set *tgds.Set, passOn []int) (*Connectivity, error) {
	if len(passOn) == 0 {
		return nil, fmt.Errorf("sticky: no pass-on points supplied")
	}
	marking, err := set.Marking()
	if err != nil {
		return nil, err
	}
	conn := &Connectivity{}
	// Birth atoms: passOn indices point into cat.Body; the relay term of
	// pass-on k is the invented term of that body atom.
	prev := 0
	for _, b := range passOn {
		if b <= prev && b != passOn[0] {
			return nil, fmt.Errorf("sticky: pass-on points must increase: %v", passOn)
		}
		if b < 1 || b >= len(cat.Body) {
			return nil, fmt.Errorf("sticky: pass-on point %d outside the prefix", b)
		}
		relay, err := inventedTerm(cat, b)
		if err != nil {
			return nil, err
		}
		conn.RelayTerms = append(conn.RelayTerms, relay)
		conn.PassOnPoints = append(conn.PassOnPoints, b)
		if len(conn.PassOnPoints) > 1 {
			gap := b - prev
			if gap > conn.MaxGap {
				conn.MaxGap = gap
			}
		}
		prev = b
	}
	// Condition: relay k survives (in the frontier) from its birth to the
	// birth of relay k+1.
	for k := 0; k+1 < len(conn.PassOnPoints); k++ {
		relay := conn.RelayTerms[k]
		from, to := conn.PassOnPoints[k], conn.PassOnPoints[k+1]
		for i := from; i <= to; i++ {
			if !cat.Body[i].HasTerm(relay) {
				return nil, fmt.Errorf("sticky: relay %v (born at %d) missing from α_%d before the next pass-on at %d",
					relay, from, i, to)
			}
		}
	}
	// Condition (4): no relay term at an immortal position.
	for i := 1; i < len(cat.Body); i++ {
		tr := cat.Triggers[i-1]
		head := tr.TGD.HeadAtom()
		for p := 1; p <= head.Pred.Arity; p++ {
			term := cat.Body[i].Arg(p)
			for _, relay := range conn.RelayTerms {
				if term == relay && marking.ImmortalHeadPosition(tr.TGDIndex, p) {
					return nil, fmt.Errorf("sticky: relay %v occupies immortal position %d of α_%d",
						relay, p, i)
				}
			}
		}
	}
	return conn, nil
}

// inventedTerm returns the term invented at body index b (the image of an
// existential variable of the producing trigger); errors when the step
// invented nothing.
func inventedTerm(cat *Caterpillar, b int) (logic.Term, error) {
	tr := cat.Triggers[b-1]
	head := tr.TGD.HeadAtom()
	frontier := tr.TGD.Frontier()
	for p := 1; p <= head.Pred.Arity; p++ {
		if !frontier.Has(head.Arg(p)) {
			return cat.Body[b].Arg(p), nil
		}
	}
	return logic.Term{}, fmt.Errorf("sticky: body atom %d (%v) invented no term", b, cat.Body[b])
}

// CheckFree verifies Definition 6.8 on a concrete prefix: two positions of
// L ∪ B carry equal terms iff the equality is provable through the ≃*
// relation generated by the trigger structure. On materialised witnesses
// the interesting direction is soundness of sharing: every equal pair must
// be connected through the relation; the converse holds by construction.
func CheckFree(cat *Caterpillar, set *tgds.Set) error {
	// Build the ≃* classes over (atom index, position): body atoms are
	// indexed 0..n, legs n+1... Per trigger i: (γ's occurrence, j) ≃
	// (α_{i+1}, p) when γ[j] = head[p]; leg occurrences likewise; and
	// repeated variables inside one atom relate their positions.
	type cell struct {
		atom int // 0..len(Body)-1 body, then legs
		pos  int
	}
	parent := make(map[cell]cell)
	var find func(c cell) cell
	find = func(c cell) cell {
		p, ok := parent[c]
		if !ok || p == c {
			return c
		}
		r := find(p)
		parent[c] = r
		return r
	}
	union := func(a, b cell) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	legIndex := make(map[string]int)
	for i, leg := range cat.Legs {
		legIndex[leg.Key()] = len(cat.Body) + i
	}
	atomOf := func(c cell) logic.Atom {
		if c.atom < len(cat.Body) {
			return cat.Body[c.atom]
		}
		return cat.Legs[c.atom-len(cat.Body)]
	}
	for i, tr := range cat.Triggers {
		head := tr.TGD.HeadAtom()
		// Map each body atom of the TGD to its concrete occurrence.
		for bi, bAtom := range tr.TGD.Body {
			img := bAtom.Apply(tr.H)
			var occ int
			if bi == cat.Gammas[i] {
				occ = i
			} else {
				idx, ok := legIndex[img.Key()]
				if !ok {
					return fmt.Errorf("sticky: step %d: leg %v not found", i+1, img)
				}
				occ = idx
			}
			// Variable sharing between this body atom and the head links
			// positions to the produced atom i+1.
			for j := 1; j <= bAtom.Pred.Arity; j++ {
				for p := 1; p <= head.Pred.Arity; p++ {
					if bAtom.Arg(j) == head.Arg(p) {
						union(cell{occ, j}, cell{i + 1, p})
					}
				}
				// Repeated variables within the body atom.
				for j2 := j + 1; j2 <= bAtom.Pred.Arity; j2++ {
					if bAtom.Arg(j) == bAtom.Arg(j2) {
						union(cell{occ, j}, cell{occ, j2})
					}
				}
			}
		}
		// Repeated head variables.
		for p := 1; p <= head.Pred.Arity; p++ {
			for p2 := p + 1; p2 <= head.Pred.Arity; p2++ {
				if head.Arg(p) == head.Arg(p2) {
					union(cell{i + 1, p}, cell{i + 1, p2})
				}
			}
		}
	}
	// Soundness of sharing: equal terms must be provably equal.
	var cells []cell
	for i := range cat.Body {
		for p := 1; p <= cat.Body[i].Pred.Arity; p++ {
			cells = append(cells, cell{i, p})
		}
	}
	for i := range cat.Legs {
		for p := 1; p <= cat.Legs[i].Pred.Arity; p++ {
			cells = append(cells, cell{len(cat.Body) + i, p})
		}
	}
	for a := 0; a < len(cells); a++ {
		for b := a + 1; b < len(cells); b++ {
			ta := atomOf(cells[a]).Arg(cells[a].pos)
			tb := atomOf(cells[b]).Arg(cells[b].pos)
			if ta == tb && find(cells[a]) != find(cells[b]) {
				return fmt.Errorf("sticky: not free: term %v shared by atom %d pos %d and atom %d pos %d without a ≃* proof",
					ta, cells[a].atom, cells[a].pos, cells[b].atom, cells[b].pos)
			}
		}
	}
	return nil
}
