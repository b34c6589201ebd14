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
	"slices"

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
	ids := make(map[logic.Term]int32)
	for _, a := range atoms {
		for _, t := range a.Args {
			if _, ok := ids[t]; !ok {
				ids[t] = int32(len(ids))
			}
		}
	}
	var h Hypergraph
	h.Reset(len(ids))
	var vs []int32
	for _, a := range atoms {
		vs = vs[:0]
		for _, t := range a.Args {
			vs = append(vs, ids[t])
		}
		h.AddEdge(vs)
	}
	parent := make([]int, n)
	if !h.Acyclic(parent) {
		return nil, false
	}
	tree := &JoinTree{Root: -1}
	for i := range atoms {
		tree.Nodes = append(tree.Nodes, Node{ID: i, Atom: atoms[i], Parent: parent[i]})
	}
	for i, p := range parent {
		if p >= 0 {
			tree.Nodes[p].Children = append(tree.Nodes[p].Children, i)
		} else {
			tree.Root = i
		}
	}
	return tree, true
}

// Hypergraph is GYO ear removal over a hypergraph whose vertices are the
// dense IDs 0..n-1, built edge by edge. Its buffers survive Reset, so a
// caller that tests many small hypergraphs (one rule body after another)
// allocates only while they grow.
type Hypergraph struct {
	edges []int32 // each edge's distinct vertices, edge after edge
	off   []int32 // edge i is edges[off[i]:off[i+1]]
	occ   []int32 // per vertex: the alive edges holding it
	mark  []int   // per vertex: the stamp of the last edge that listed it
	alive []bool
	stamp int
}

// Reset empties h for a hypergraph over the vertices 0..n-1.
func (h *Hypergraph) Reset(n int) {
	h.occ = slices.Grow(h.occ[:0], n)[:n]
	h.mark = slices.Grow(h.mark[:0], n)[:n]
	clear(h.occ)
	clear(h.mark)
	h.stamp = 0
	h.edges, h.off = h.edges[:0], append(h.off[:0], 0)
}

// AddEdge adds the edge over the vertices vs; a repeated vertex counts
// once.
func (h *Hypergraph) AddEdge(vs []int32) {
	h.stamp++
	for _, v := range vs {
		if h.mark[v] != h.stamp {
			h.mark[v] = h.stamp
			h.edges = append(h.edges, v)
			h.occ[v]++
		}
	}
	h.off = append(h.off, int32(len(h.edges)))
}

// Acyclic runs GYO ear removal and reports whether the hypergraph is
// acyclic: an alive edge is an ear when some other alive edge (its
// witness) holds every vertex it shares with the alive edges, and removing
// ears in edge order, sweep after sweep, until one edge is left succeeds
// exactly on acyclic hypergraphs. When parent is not nil it holds one
// entry per edge, and an acyclic run sets each ear's entry to its witness
// and the last edge's to -1. A witness is removed after its ear or never,
// so parent is a join tree. Acyclic consumes the edges' occurrence counts:
// Reset h before the next run.
func (h *Hypergraph) Acyclic(parent []int) bool {
	n := len(h.off) - 1
	h.alive = slices.Grow(h.alive[:0], n)[:n]
	for i := range h.alive {
		h.alive[i] = true
	}
	for i := range parent {
		parent[i] = -1
	}
	left := n
	for removed := true; removed && left > 1; {
		removed = false
		for i := 0; i < n && left > 1; i++ {
			if !h.alive[i] {
				continue
			}
			ei := h.edges[h.off[i]:h.off[i+1]]
			for j := 0; j < n; j++ {
				if i == j || !h.alive[j] || !h.covers(j, ei) {
					continue
				}
				h.alive[i] = false
				left--
				for _, v := range ei {
					h.occ[v]--
				}
				if parent != nil {
					parent[i] = j
				}
				removed = true
				break
			}
		}
	}
	return left <= 1
}

// covers reports whether edge j holds every vertex of ei that another
// alive edge shares.
func (h *Hypergraph) covers(j int, ei []int32) bool {
	h.stamp++
	for _, v := range h.edges[h.off[j]:h.off[j+1]] {
		h.mark[v] = h.stamp
	}
	for _, v := range ei {
		if h.occ[v] > 1 && h.mark[v] != h.stamp {
			return false
		}
	}
	return true
}

// IsAcyclic reports whether the atoms form an acyclic instance.
func IsAcyclic(atoms []logic.Atom) bool {
	_, ok := Build(atoms)
	return ok
}
