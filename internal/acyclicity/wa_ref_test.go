package acyclicity

import (
	"airct/internal/logic"
	"airct/internal/tgds"
)

// referenceIsWeaklyAcyclic is the position-map graph and the DFS per
// special edge that IsWeaklyAcyclic replaced, kept as the oracle for its
// one SCC pass.
func referenceIsWeaklyAcyclic(set *tgds.Set) bool {
	edges := referenceDependencyGraph(set)
	adj := make(map[logic.Position][]logic.Position)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	reaches := func(from, to logic.Position) bool {
		seen := map[logic.Position]bool{from: true}
		stack := []logic.Position{from}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == to {
				return true
			}
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		return false
	}
	for _, e := range edges {
		if e.special && reaches(e.to, e.from) {
			return false
		}
	}
	return true
}

// referenceEdge is a dependency-graph edge between positions; special
// edges mark the creation of a null (existential variable).
type referenceEdge struct {
	from, to logic.Position
	special  bool
}

// referenceDependencyGraph builds the weak-acyclicity graph: for every TGD
// σ, every frontier variable x at body position π_b and head position π_h
// gives a normal edge π_b → π_h; additionally, every existential variable
// z at head position π_z gives a special edge π_b ⇒ π_z from every body
// position π_b of every frontier variable of σ.
func referenceDependencyGraph(set *tgds.Set) []referenceEdge {
	var edges []referenceEdge
	for _, t := range set.TGDs {
		frontier := t.Frontier()
		existential := t.ExistentialVars()
		bodyPos := make(map[logic.Term][]logic.Position)
		for _, a := range t.Body {
			for i, v := range a.Args {
				if frontier.Has(v) {
					bodyPos[v] = append(bodyPos[v], logic.Position{Pred: a.Pred, Index: i + 1})
				}
			}
		}
		for _, h := range t.Head {
			for i, v := range h.Args {
				pos := logic.Position{Pred: h.Pred, Index: i + 1}
				switch {
				case frontier.Has(v):
					for _, b := range bodyPos[v] {
						edges = append(edges, referenceEdge{from: b, to: pos})
					}
				case existential.Has(v):
					for _, positions := range bodyPos {
						for _, b := range positions {
							edges = append(edges, referenceEdge{from: b, to: pos, special: true})
						}
					}
				}
			}
		}
	}
	return edges
}
