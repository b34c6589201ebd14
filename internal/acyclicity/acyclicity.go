// Package acyclicity implements the classical *sufficient* conditions for
// all-instances restricted chase termination that the paper's introduction
// surveys: weak acyclicity (Fagin et al., the data-exchange standard),
// joint acyclicity (Krötzsch & Rudolph), and model-faithful acyclicity
// (MFA-style, via the critical instance). These are the baselines the
// decision procedures of Sections 5 and 6 are measured against: each is
// sound (acceptance implies termination) but incomplete (rejection proves
// nothing).
package acyclicity

import (
	"airct/internal/logic"
	"airct/internal/tgds"
)

// edge is a dependency-graph edge between positions; special edges mark the
// creation of a null (existential variable).
type edge struct {
	from, to logic.Position
	special  bool
}

// dependencyGraph builds the weak-acyclicity graph: for every TGD σ, every
// frontier variable x at body position π_b and head position π_h gives a
// normal edge π_b → π_h; additionally, every existential variable z at head
// position π_z gives a special edge π_b ⇒ π_z from every body position π_b
// of every frontier variable of σ.
func dependencyGraph(set *tgds.Set) []edge {
	var edges []edge
	for _, t := range set.TGDs {
		frontier := t.Frontier()
		existential := t.ExistentialVars()
		// Body positions of each frontier variable.
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
						edges = append(edges, edge{from: b, to: pos})
					}
				case existential.Has(v):
					for _, positions := range bodyPos {
						for _, b := range positions {
							edges = append(edges, edge{from: b, to: pos, special: true})
						}
					}
				}
			}
		}
	}
	return edges
}

// IsWeaklyAcyclic reports whether the set is weakly acyclic: its dependency
// graph has no cycle through a special edge. Weak acyclicity guarantees
// termination of every (restricted or oblivious) chase sequence on every
// database.
func IsWeaklyAcyclic(set *tgds.Set) bool {
	edges := dependencyGraph(set)
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

// IsJointlyAcyclic reports whether the set is jointly acyclic (Krötzsch &
// Rudolph): the existential-dependency graph over the existential variables
// is acyclic, where Mov(z) — the positions the null for z can move to — is
// closed under frontier variables all of whose body positions lie in
// Mov(z), and z → z′ when the rule introducing z′ has a frontier variable
// whose body positions all lie in Mov(z). Joint acyclicity subsumes weak
// acyclicity.
func IsJointlyAcyclic(set *tgds.Set) bool {
	type exVar struct {
		tgd int
		v   logic.Term
	}
	var exVars []exVar
	for i, t := range set.TGDs {
		for _, v := range t.ExistentialVars().Sorted() {
			exVars = append(exVars, exVar{tgd: i, v: v})
		}
	}
	if len(exVars) == 0 {
		return true // an empty dependency graph is acyclic
	}
	frontiers := make([][]logic.Term, len(set.TGDs))
	for i, t := range set.TGDs {
		frontiers[i] = t.Frontier().Sorted()
	}
	mov := make([]map[logic.Position]bool, len(exVars))
	for k, ev := range exVars {
		m := make(map[logic.Position]bool)
		for _, h := range set.TGDs[ev.tgd].Head {
			for i, v := range h.Args {
				if v == ev.v {
					m[logic.Position{Pred: h.Pred, Index: i + 1}] = true
				}
			}
		}
		// Close under frontier propagation.
		for changed := true; changed; {
			changed = false
			for ti, t := range set.TGDs {
				for _, x := range frontiers[ti] {
					all := true
					any := false
					for _, a := range t.Body {
						for i, v := range a.Args {
							if v == x {
								any = true
								if !m[logic.Position{Pred: a.Pred, Index: i + 1}] {
									all = false
								}
							}
						}
					}
					if !any || !all {
						continue
					}
					for _, h := range t.Head {
						for i, v := range h.Args {
							p := logic.Position{Pred: h.Pred, Index: i + 1}
							if v == x && !m[p] {
								m[p] = true
								changed = true
							}
						}
					}
				}
			}
		}
		mov[k] = m
	}
	// Dependency graph over existential variables.
	adj := make([][]int, len(exVars))
	for from := range exVars {
		for to, ev := range exVars {
			t := set.TGDs[ev.tgd]
			dep := false
			for _, x := range frontiers[ev.tgd] {
				all := true
				any := false
				for _, a := range t.Body {
					for i, v := range a.Args {
						if v == x {
							any = true
							if !mov[from][logic.Position{Pred: a.Pred, Index: i + 1}] {
								all = false
							}
						}
					}
				}
				if any && all {
					dep = true
					break
				}
			}
			if dep {
				adj[from] = append(adj[from], to)
			}
		}
	}
	// Cycle detection.
	color := make([]int, len(exVars))
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = 1
		for _, u := range adj[v] {
			if color[u] == 1 {
				return false
			}
			if color[u] == 0 && !dfs(u) {
				return false
			}
		}
		color[v] = 2
		return true
	}
	for v := range exVars {
		if color[v] == 0 && !dfs(v) {
			return false
		}
	}
	return true
}
