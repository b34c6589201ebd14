// Package jointree implements join trees and instance acyclicity
// (Definition 5.4): an instance is acyclic iff its atoms can be arranged in
// a tree such that, for every term, the nodes mentioning that term form a
// connected subtree. Acyclicity is decided by the classical GYO ear-removal
// algorithm on the instance's hypergraph, which also yields a witnessing
// join tree. The guarded machinery (Treeification) builds on this
// package.
package jointree

import (
	"fmt"

	"airct/internal/logic"
)

// Node is a vertex of a join tree: an atom plus tree links. Parent is -1
// for the root.
type Node struct {
	ID       int
	Atom     logic.Atom
	Parent   int
	Children []int
}

// JoinTree is a rooted tree over atoms (one node per atom occurrence).
type JoinTree struct {
	Nodes []Node
	Root  int
}

// Validate checks the join-tree conditions of Definition 5.4: tree shape
// (single root, parent/child consistency) and term connectedness — for each
// term, the set of nodes whose atom mentions it induces a connected subtree.
func (t *JoinTree) Validate() error {
	if len(t.Nodes) == 0 {
		return nil
	}
	roots := 0
	for i, n := range t.Nodes {
		if n.ID != i {
			return fmt.Errorf("jointree: node %d has ID %d", i, n.ID)
		}
		if n.Parent == -1 {
			roots++
			continue
		}
		if n.Parent < 0 || n.Parent >= len(t.Nodes) {
			return fmt.Errorf("jointree: node %d has parent %d out of range", i, n.Parent)
		}
		found := false
		for _, c := range t.Nodes[n.Parent].Children {
			if c == i {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("jointree: node %d missing from parent %d's children", i, n.Parent)
		}
	}
	if roots != 1 {
		return fmt.Errorf("jointree: %d roots", roots)
	}
	// Connectedness: for every term, the nodes mentioning it minus one
	// witness node must each have a parent that also mentions it (walking
	// towards the subtree's top). Equivalently: among nodes mentioning t,
	// exactly one has a parent that does not mention t (or is the root).
	mentions := make(map[logic.Term][]int)
	for i, n := range t.Nodes {
		for term := range n.Atom.Terms() {
			mentions[term] = append(mentions[term], i)
		}
	}
	for term, nodes := range mentions {
		tops := 0
		inSet := make(map[int]bool, len(nodes))
		for _, i := range nodes {
			inSet[i] = true
		}
		for _, i := range nodes {
			p := t.Nodes[i].Parent
			if p == -1 || !inSet[p] {
				tops++
			}
		}
		if tops != 1 {
			return fmt.Errorf("jointree: term %v spans %d disconnected subtrees", term, tops)
		}
	}
	return nil
}

// Build runs GYO ear removal on the atoms and returns a witnessing join
// tree when the instance is acyclic, or ok = false when it is cyclic. Atom
// occurrences are kept apart: duplicate atoms are distinct nodes (the
// treeified database D_ac of Appendix C.2 is a multiset).
func Build(atoms []logic.Atom) (*JoinTree, bool) {
	n := len(atoms)
	if n == 0 {
		return &JoinTree{Root: -1}, true
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	// occurrences[t] = number of alive atoms mentioning t.
	occ := make(map[logic.Term]int)
	termSets := make([]logic.TermSet, n)
	for i, a := range atoms {
		termSets[i] = a.Terms()
		for t := range termSets[i] {
			occ[t]++
		}
	}
	aliveCount := n
	removed := true
	for removed && aliveCount > 1 {
		removed = false
		for i := 0; i < n && aliveCount > 1; i++ {
			if !alive[i] {
				continue
			}
			// Shared terms of i: terms also alive elsewhere.
			shared := make([]logic.Term, 0, len(termSets[i]))
			for t := range termSets[i] {
				if occ[t] > 1 {
					shared = append(shared, t)
				}
			}
			// An ear needs a witness atom containing every shared term.
			for j := 0; j < n; j++ {
				if i == j || !alive[j] {
					continue
				}
				covers := true
				for _, t := range shared {
					if !termSets[j].Has(t) {
						covers = false
						break
					}
				}
				if covers {
					alive[i] = false
					aliveCount--
					parent[i] = j
					for t := range termSets[i] {
						occ[t]--
					}
					removed = true
					break
				}
			}
		}
	}
	if aliveCount != 1 {
		return nil, false
	}
	root := -1
	for i := range alive {
		if alive[i] {
			root = i
		}
	}
	// Ear parents may themselves have been removed later; compress chains
	// into the final tree (parent pointers always reference atoms removed
	// *after* the child or the root, so they are valid tree edges).
	tree := &JoinTree{Root: root}
	for i := range atoms {
		tree.Nodes = append(tree.Nodes, Node{ID: i, Atom: atoms[i], Parent: parent[i]})
	}
	for i, p := range parent {
		if p >= 0 {
			tree.Nodes[p].Children = append(tree.Nodes[p].Children, i)
		}
	}
	return tree, true
}

// IsAcyclic reports whether the atoms form an acyclic instance.
func IsAcyclic(atoms []logic.Atom) bool {
	_, ok := Build(atoms)
	return ok
}
