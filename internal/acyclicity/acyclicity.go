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
	"slices"

	"airct/internal/tgds"
)

// IsWeaklyAcyclic reports whether the set is weakly acyclic: its dependency
// graph has no cycle through a special edge. Weak acyclicity guarantees
// termination of every (restricted or oblivious) chase sequence on every
// database.
//
// The dependency graph has, for every TGD σ, a normal edge π_b → π_h for
// every frontier variable x at body position π_b and head position π_h,
// and a special edge π_b ⇒ π_z for every existential variable z at head
// position π_z and every body position π_b of every frontier variable of
// σ. It is built in CSR form over the compiled set's dense IDs, with two
// kinds of pass-through node that keep its size linear in the rules': one
// per frontier slot x (π_b → x → π_h) and one per TGD with existentials
// (π_b → x → ρ_σ ⇒ π_z). Paths between positions are exactly those of the
// dependency graph, so a special edge π_b ⇒ π_z lies on a cycle iff π_z
// reaches ρ_σ, that is iff the edge ρ_σ ⇒ π_z lies inside one strongly
// connected component. One iterative Tarjan pass finds the components.
func IsWeaklyAcyclic(set *tgds.Set) bool {
	c := set.Compiled()
	nPos := c.NumPositions()
	slotNode := func(r *tgds.Rule, x int32) int32 { return nPos + r.Base + x }
	ruleNode := func(ri int) int32 { return nPos + c.NumSlots + int32(ri) }
	g := tgds.BuildCSR(ruleNode(len(c.Rules)), func(edge func(from, to int32)) {
		for ri := range c.Rules {
			r := &c.Rules[ri]
			for _, a := range r.Body {
				for i, x := range a.Slots {
					if r.Frontier[x] {
						edge(c.Pos(a, i), slotNode(r, x))
					}
				}
			}
			for _, h := range r.Head {
				for i, x := range h.Slots {
					if x < r.NBody {
						edge(slotNode(r, x), c.Pos(h, i))
					} else {
						edge(ruleNode(ri), c.Pos(h, i))
					}
				}
			}
			if len(r.Vars) > int(r.NBody) {
				for x, f := range r.Frontier {
					if f {
						edge(slotNode(r, int32(x)), ruleNode(ri))
					}
				}
			}
		}
	})
	comp, _ := components(g)
	for ri := range c.Rules {
		v := ruleNode(ri)
		for _, w := range g.At(v) {
			if comp[w] == comp[v] {
				return false
			}
		}
	}
	return true
}

// components labels the strongly connected components of the graph (node
// v's successors are g.At(v)) by one iterative Tarjan pass, and returns
// each node's component and the component count.
func components(g tgds.CSR[int32]) ([]int32, int32) {
	n := int32(len(g.Off) - 1)
	comp := make([]int32, n)
	index := make([]int32, n) // discovery order, 1-based; 0: unvisited
	low := make([]int32, n)
	for v := range comp {
		comp[v] = -1
	}
	var stack, call, next []int32 // Tarjan's stack; the DFS path and each frame's next edge
	var seen, ncomp int32
	visit := func(v int32) {
		seen++
		index[v], low[v] = seen, seen
		stack = append(stack, v)
		call = append(call, v)
		next = append(next, g.Off[v])
	}
	for root := range n {
		if index[root] != 0 {
			continue
		}
		visit(root)
		for len(call) > 0 {
			top := len(call) - 1
			v := call[top]
			if e := next[top]; e < g.Off[v+1] {
				next[top]++
				switch w := g.Val[e]; {
				case index[w] == 0:
					visit(w)
				case comp[w] < 0: // on the stack
					low[v] = min(low[v], index[w])
				}
				continue
			}
			call, next = call[:top], next[:top]
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			if top > 0 {
				u := call[top-1]
				low[u] = min(low[u], low[v])
			}
		}
	}
	return comp, ncomp
}

// IsJointlyAcyclic reports whether the set is jointly acyclic (Krötzsch &
// Rudolph): the existential-dependency graph over the existential variables
// is acyclic, where Mov(z) — the positions the null for z can move to — is
// closed under frontier variables all of whose body positions lie in
// Mov(z), and z → z′ when the rule introducing z′ has a frontier variable
// whose body positions all lie in Mov(z). Joint acyclicity subsumes weak
// acyclicity.
//
// It reads the compiled set: each frontier slot is one (TGD, frontier
// variable) pair, and each existential slot one existential variable.
// Each Mov(z) is one worklist pass. Every body position is indexed to the
// frontier slots that occur there, once per occurrence, and each frontier
// slot counts its body occurrences whose position is not yet in Mov(z). A
// position entering Mov(z) decrements the counts of its slots, and a slot
// whose count reaches 0 adds its head positions. So each position, slot
// and body occurrence is visited once per existential variable, and the
// pass resets only what it touched. The dependency graph routes z → z′
// through one node per TGD, z → σ → z′, which keeps it linear in the
// existential variables, and it is acyclic iff every strongly connected
// component is one node.
func IsJointlyAcyclic(set *tgds.Set) bool {
	c := set.Compiled()
	var exVars []int32 // set-wide existential slots, rule by rule
	exOff := make([]int32, len(c.Rules)+1)
	ruleOf := make([]int32, c.NumSlots)
	need := make([]int32, c.NumSlots)
	for ri, r := range c.Rules {
		for x := range int32(len(r.Vars)) {
			ruleOf[r.Base+x] = int32(ri)
			if x >= r.NBody {
				exVars = append(exVars, r.Base+x)
			}
		}
		exOff[ri+1] = int32(len(exVars))
		for _, a := range r.Body {
			for _, x := range a.Slots {
				if r.Frontier[x] {
					need[r.Base+x]++
				}
			}
		}
	}
	if len(exVars) == 0 {
		return true // an empty dependency graph is acyclic
	}
	// headAt lists each slot's head positions, atPos each position's
	// frontier slots, once per body occurrence.
	headAt := tgds.BuildCSR(c.NumSlots, func(put func(int32, int32)) {
		for _, r := range c.Rules {
			for _, h := range r.Head {
				for i, x := range h.Slots {
					put(r.Base+x, c.Pos(h, i))
				}
			}
		}
	})
	atPos := tgds.BuildCSR(c.NumPositions(), func(put func(int32, int32)) {
		for _, r := range c.Rules {
			for _, a := range r.Body {
				for i, x := range a.Slots {
					if r.Frontier[x] {
						put(c.Pos(a, i), r.Base+x)
					}
				}
			}
		}
	})
	// The dependency graph: node k < len(exVars) is exVars[k], node
	// len(exVars)+σ is TGD σ, with z → σ when σ fires in Mov(z) and has
	// existentials, and σ → z′ for each existential z′ of σ.
	nEx := int32(len(exVars))
	g := tgds.CSR[int32]{Off: make([]int32, 0, int(nEx)+len(c.Rules)+1)}
	inMov := make([]bool, c.NumPositions())
	left := slices.Clone(need)
	fires := make([]bool, len(c.Rules))
	var moved, dec, fired []int32 // what a pass touched, to reset
	var work []int32
	add := func(ps []int32) {
		for _, p := range ps {
			if !inMov[p] {
				inMov[p] = true
				moved = append(moved, p)
				work = append(work, p)
			}
		}
	}
	for _, z := range exVars {
		add(headAt.At(z))
		for len(work) > 0 {
			p := work[len(work)-1]
			work = work[:len(work)-1]
			for _, x := range atPos.At(p) {
				dec = append(dec, x)
				if left[x]--; left[x] == 0 {
					if ri := ruleOf[x]; !fires[ri] {
						fires[ri] = true
						fired = append(fired, ri)
					}
					add(headAt.At(x))
				}
			}
		}
		g.Off = append(g.Off, int32(len(g.Val)))
		for _, ri := range fired {
			if exOff[ri+1] > exOff[ri] {
				g.Val = append(g.Val, nEx+ri)
			}
			fires[ri] = false
		}
		for _, p := range moved {
			inMov[p] = false
		}
		for _, x := range dec {
			left[x] = need[x]
		}
		moved, dec, fired = moved[:0], dec[:0], fired[:0]
	}
	for ri := range c.Rules {
		g.Off = append(g.Off, int32(len(g.Val)))
		for k := exOff[ri]; k < exOff[ri+1]; k++ {
			g.Val = append(g.Val, k)
		}
	}
	g.Off = append(g.Off, int32(len(g.Val)))
	_, ncomp := components(g)
	return ncomp == int32(len(g.Off)-1)
}
