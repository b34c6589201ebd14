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
//
// Each Mov(z) is one worklist pass. Every body position is indexed to the
// (TGD, frontier variable) pairs that occur there, once per occurrence,
// and each pair counts its body occurrences whose position is not yet in
// Mov(z). A position entering Mov(z) decrements the counts of its pairs,
// and a pair whose count reaches 0 adds its head positions. So each
// position, pair and body occurrence is visited once per existential
// variable.
func IsJointlyAcyclic(set *tgds.Set) bool {
	// pair is one (TGD, frontier variable): its count of body occurrences
	// and its head positions. exVar is one existential variable: its TGD
	// and head positions, the seed of Mov(z).
	type pair struct {
		tgd  int
		need int32
		head []int32
	}
	type exVar struct {
		tgd  int
		head []int32
	}
	var pairs []pair
	var exVars []exVar
	posID := make(map[logic.Position]int32)
	var atPos [][]int32 // body position -> a pair per occurrence there
	id := func(pred logic.Predicate, i int) int32 {
		p := logic.Position{Pred: pred, Index: i + 1}
		n, ok := posID[p]
		if !ok {
			n = int32(len(posID))
			posID[p] = n
			atPos = append(atPos, nil)
		}
		return n
	}
	// Per TGD, pairOf maps each frontier variable to its pair and exOf
	// each existential variable to its exVar, in head order.
	pairOf := make(map[logic.Term]int32)
	exOf := make(map[logic.Term]int32)
	for ti, t := range set.TGDs {
		body := t.BodyVars()
		clear(pairOf)
		clear(exOf)
		for _, h := range t.Head {
			for i, v := range h.Args {
				switch p := id(h.Pred, i); {
				case !v.IsVar():
				case body.Has(v):
					q, ok := pairOf[v]
					if !ok {
						q = int32(len(pairs))
						pairOf[v] = q
						pairs = append(pairs, pair{tgd: ti})
					}
					pairs[q].head = append(pairs[q].head, p)
				default:
					q, ok := exOf[v]
					if !ok {
						q = int32(len(exVars))
						exOf[v] = q
						exVars = append(exVars, exVar{tgd: ti})
					}
					exVars[q].head = append(exVars[q].head, p)
				}
			}
		}
		for _, a := range t.Body {
			for i, v := range a.Args {
				if q, ok := pairOf[v]; ok {
					p := id(a.Pred, i)
					atPos[p] = append(atPos[p], q)
					pairs[q].need++
				}
			}
		}
	}
	if len(exVars) == 0 {
		return true // an empty dependency graph is acyclic
	}
	// Dependency graph over existential variables.
	adj := make([][]int, len(exVars))
	inMov := make([]bool, len(posID))
	left := make([]int32, len(pairs))
	fires := make([]bool, len(set.TGDs)) // some frontier variable of the TGD lies wholly in Mov(z)
	var work []int32
	add := func(ps []int32) {
		for _, p := range ps {
			if !inMov[p] {
				inMov[p] = true
				work = append(work, p)
			}
		}
	}
	for from, ez := range exVars {
		clear(inMov)
		clear(fires)
		for q := range pairs {
			left[q] = pairs[q].need
		}
		add(ez.head)
		for len(work) > 0 {
			p := work[len(work)-1]
			work = work[:len(work)-1]
			for _, q := range atPos[p] {
				if left[q]--; left[q] == 0 {
					fires[pairs[q].tgd] = true
					add(pairs[q].head)
				}
			}
		}
		for to, ev := range exVars {
			if fires[ev.tgd] {
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
