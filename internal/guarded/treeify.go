package guarded

import (
	"fmt"
	"slices"

	"airct/internal/instance"
	"airct/internal/jointree"
	"airct/internal/logic"
	"airct/internal/ochase"
)

// RemoteSituation is the paper's ⟨α, α′, β, β′⟩ (Definition 5.7/C.1): α and
// β are distinct database atoms, α ≺⁺gp α′, β ≺⁺gp β′, and β′ is a
// side-parent of α′ — so α "longs for" β: divergence below α needs service
// from β's offspring.
type RemoteSituation struct {
	Alpha, AlphaPrime, Beta, BetaPrime ochase.NodeID
}

// TreeifyOptions bounds the construction.
type TreeifyOptions struct {
	// MaxDepth caps ℓ∞, the longs-for path length (0: 6). The paper's ℓ∞
	// is finite by Lemma C.2; on a fragment we take the number of distinct
	// remote (β, β′) pairs, capped here.
	MaxDepth int
	// IncludeDirect also treats a database atom β that *itself* serves as
	// a side-parent of an α-descendant as longed-for (the reflexive-closure
	// reading); without its copy the treeified database could not replay
	// derivations that consume β directly.
	IncludeDirect bool
}

func (o TreeifyOptions) maxDepth() int {
	if o.MaxDepth <= 0 {
		return 6
	}
	return o.MaxDepth
}

// Treeification is the result of the Appendix C.2 construction: the acyclic
// (multiset) database D_ac presented as an explicit join tree, together
// with the homomorphism h_ac back to the original database and the
// bookkeeping the proofs refer to.
type Treeification struct {
	// Dac holds the multiset database: one atom per tree node.
	Dac []logic.Atom
	// Tree is the witnessing join tree over Dac (same node indexing).
	Tree *jointree.JoinTree
	// Hac maps each tree node to the original database atom it copies.
	Hac []logic.Atom
	// Depth is the longs-for path depth of each node (root = 0).
	Depth []int
	// AlphaInf is the database atom α∞ with the largest guard subtree.
	AlphaInf logic.Atom
	// EllInf is the ℓ∞ bound used.
	EllInf int
	// LongsFor lists the longs-for edges over database atom keys.
	LongsFor map[string][]string
	// Situations are the remote-side-parent situations found.
	Situations []RemoteSituation
}

// Database returns D_ac as a set database (collapsing multiset duplicates),
// which is what the chase consumes; the multiset structure only matters for
// the proof bookkeeping.
func (t *Treeification) Database() *instance.Database { return seedDatabase(t.Facts()) }

// Facts returns D_ac as a duplicate-free fact slice: Dac without its
// multiset duplicates, in first-occurrence order — the atoms of Database,
// in its order.
func (t *Treeification) Facts() []logic.Atom {
	facts, ok := distinctFacts(t.Dac)
	if !ok {
		panic("guarded: treeification emitted a non-fact") // relabel only emits constants
	}
	return facts
}

// Treeify runs the Treeification construction on a real-oblivious-chase
// fragment of a guarded set: it locates α∞ (the database atom with the
// largest guard subtree in the fragment — the proxy for "infinite" on a
// finite fragment), computes the longs-for graph from the remote-side-
// parent situations present in the fragment, and materialises the path
// tree (T_ac, λ) with the renaming-with-sharing label rule of the paper.
// It reads only the fragment's ID plane: node kinds, parents, guard slots
// and database atoms.
func Treeify(g *ochase.Graph, opts TreeifyOptions) (*Treeification, error) {
	if !g.Set.IsGuarded() {
		return nil, fmt.Errorf("guarded: treeification needs a guarded single-head set")
	}
	return treeify(g, opts)
}

// treeify is Treeify without the guardedness check; a node of an
// unguarded TGD has no guard root and is left out of every subtree.
func treeify(g *ochase.Graph, opts TreeifyOptions) (*Treeification, error) {
	if g.Database.Len() == 0 {
		return nil, fmt.Errorf("guarded: empty database")
	}
	// Guard roots in one forward pass (parents precede children), and the
	// guard-subtree size of each root. Database atoms are the first nodes.
	n := g.Len()
	root := make([]ochase.NodeID, n) // -1: no guard root
	subtreeSize := make([]int, n)
	var dbNodes []ochase.NodeID
	for v := range ochase.NodeID(n) {
		gp, guarded := g.GuardParent(v)
		switch {
		case g.IsDatabaseNode(v):
			root[v] = v
			dbNodes = append(dbNodes, v)
		case guarded && root[gp] >= 0:
			root[v] = root[gp]
		default:
			root[v] = -1
			continue
		}
		subtreeSize[root[v]]++
	}
	// α∞: database node with the largest guard subtree.
	alphaInf := dbNodes[0]
	for _, id := range dbNodes {
		if subtreeSize[id] > subtreeSize[alphaInf] {
			alphaInf = id
		}
	}
	// Remote-side-parent situations and the longs-for graph.
	longsFor := make(map[ochase.NodeID]map[ochase.NodeID]bool)
	var situations []RemoteSituation
	type pair struct{ beta, betaPrime ochase.NodeID }
	pairSeen := make(map[pair]bool)
	addEdge := func(a, b ochase.NodeID) {
		if longsFor[a] == nil {
			longsFor[a] = make(map[ochase.NodeID]bool)
		}
		longsFor[a][b] = true
	}
	for v := range ochase.NodeID(n) {
		rAlpha := root[v]
		if g.IsDatabaseNode(v) || rAlpha < 0 {
			continue
		}
		guard := g.GuardSlot(v)
		for i, sp := range g.Parents(v) {
			if i == guard {
				continue
			}
			if g.IsDatabaseNode(sp) {
				if opts.IncludeDirect && sp != rAlpha {
					addEdge(rAlpha, sp)
					situations = append(situations, RemoteSituation{
						Alpha: rAlpha, AlphaPrime: v, Beta: sp, BetaPrime: sp,
					})
					pairSeen[pair{sp, sp}] = true
				}
				continue
			}
			rBeta := root[sp]
			if rBeta < 0 || rBeta == rAlpha {
				continue
			}
			addEdge(rAlpha, rBeta)
			situations = append(situations, RemoteSituation{
				Alpha: rAlpha, AlphaPrime: v, Beta: rBeta, BetaPrime: sp,
			})
			pairSeen[pair{rBeta, sp}] = true
		}
	}
	ellInf := len(pairSeen)
	if ellInf < 1 {
		ellInf = 1
	}
	if ellInf > opts.maxDepth() {
		ellInf = opts.maxDepth()
	}
	// Materialise the path tree.
	rootAtom := g.DatabaseAtom(alphaInf)
	tr := &Treeification{
		AlphaInf: rootAtom,
		EllInf:   ellInf,
		LongsFor: make(map[string][]string, len(longsFor)),
	}
	for a, targets := range longsFor {
		keys := make([]string, 0, len(targets))
		for _, b := range sortedKeys(targets) {
			keys = append(keys, g.DatabaseAtom(b).Key())
		}
		tr.LongsFor[g.DatabaseAtom(a).Key()] = keys
	}
	tr.Situations = situations
	tree := &jointree.JoinTree{Root: 0}
	// Node construction: breadth-first over longs-for paths.
	type pending struct {
		nodeID int // index in tree
		dbNode ochase.NodeID
		depth  int
	}
	tree.Nodes = append(tree.Nodes, jointree.Node{ID: 0, Atom: rootAtom, Parent: -1})
	tr.Dac = append(tr.Dac, rootAtom)
	tr.Hac = append(tr.Hac, rootAtom)
	tr.Depth = append(tr.Depth, 0)
	queue := []pending{{nodeID: 0, dbNode: alphaInf, depth: 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.depth >= ellInf {
			continue
		}
		parentLabel := tree.Nodes[cur.nodeID].Atom
		parentOrig := g.DatabaseAtom(cur.dbNode)
		for _, beta := range sortedKeys(longsFor[cur.dbNode]) {
			betaAtom := g.DatabaseAtom(beta)
			childID := len(tree.Nodes)
			label := relabel(betaAtom, parentOrig, parentLabel, childID)
			tree.Nodes = append(tree.Nodes, jointree.Node{ID: childID, Atom: label, Parent: cur.nodeID})
			tree.Nodes[cur.nodeID].Children = append(tree.Nodes[cur.nodeID].Children, childID)
			tr.Dac = append(tr.Dac, label)
			tr.Hac = append(tr.Hac, betaAtom)
			tr.Depth = append(tr.Depth, cur.depth+1)
			queue = append(queue, pending{nodeID: childID, dbNode: beta, depth: cur.depth + 1})
		}
	}
	tr.Tree = tree
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("guarded: treeification self-check: %w", err)
	}
	return tr, nil
}

// relabel builds λ(y) for a child copying β under a parent copying α with
// label λ(x): same equality pattern as β; positions sharing a term with α
// share the corresponding term of λ(x); all other terms are fresh constants
// [β[i]]_y (Appendix C.2).
func relabel(beta, alphaOrig, alphaLabel logic.Atom, nodeID int) logic.Atom {
	args := make([]logic.Term, len(beta.Args))
	assigned := make(map[logic.Term]logic.Term) // β-term -> label term
	for i, t := range beta.Args {
		if u, ok := assigned[t]; ok {
			args[i] = u
			continue
		}
		var val logic.Term
		found := false
		for j, at := range alphaOrig.Args {
			if at == t {
				val = alphaLabel.Args[j]
				found = true
				break
			}
		}
		if !found {
			val = logic.Const(fmt.Sprintf("%s@n%d", t.Name, nodeID))
		}
		assigned[t] = val
		args[i] = val
	}
	return logic.NewAtom(beta.Pred, args...)
}

// sortedKeys returns the members of a node set in ID order.
func sortedKeys(m map[ochase.NodeID]bool) []ochase.NodeID {
	out := make([]ochase.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Validate checks the construction's invariants: the tree is a valid join
// tree (so D_ac is acyclic, Lemma C.3(1)); h_ac is a homomorphism
// (Lemma C.3(2)); and per-edge, the label shares terms with its parent
// exactly where the originals share terms (the isomorphism of Lemma C.3(3)
// restricted to edges).
func (t *Treeification) Validate() error {
	if err := t.Tree.Validate(); err != nil {
		return err
	}
	for i, label := range t.Dac {
		orig := t.Hac[i]
		if label.Pred != orig.Pred {
			return fmt.Errorf("node %d: predicate %v vs original %v", i, label.Pred, orig.Pred)
		}
		// h_ac is well-defined per atom: equal label terms must map to
		// equal original terms positionwise.
		for a := range label.Args {
			for b := range label.Args {
				if label.Args[a] == label.Args[b] && orig.Args[a] != orig.Args[b] {
					return fmt.Errorf("node %d: label merges positions %d,%d the original keeps apart", i, a+1, b+1)
				}
			}
		}
	}
	for i, n := range t.Tree.Nodes {
		if n.Parent < 0 {
			continue
		}
		label, orig := t.Dac[i], t.Hac[i]
		pLabel, pOrig := t.Dac[n.Parent], t.Hac[n.Parent]
		for a := range label.Args {
			for b := range pLabel.Args {
				shareLabel := label.Args[a] == pLabel.Args[b]
				shareOrig := orig.Args[a] == pOrig.Args[b]
				if shareLabel != shareOrig {
					return fmt.Errorf("edge %d->%d: sharing mismatch at positions %d/%d", n.Parent, i, a+1, b+1)
				}
			}
		}
	}
	return nil
}
