// Package ochase implements the real oblivious chase of Definition 3.3: the
// smallest labeled directed graph ochase(D,T) whose nodes carry atoms and
// TGD-mapping pairs, closed under trigger application over node tuples. It
// is a *multiset* structure — the same atom can label many nodes, each
// remembering unambiguously which nodes produced it (the parent relation
// ≺p). On top of the graph the package provides the stop relation ≺s, the
// before relation ≺b, chaseable sets (Definition 5.2), and the two
// directions of Theorem 5.3: extracting a restricted chase derivation from a
// chaseable set, and a chaseable set from a restricted chase derivation.
//
// The paper's ochase(D,T) is generally infinite; Build materialises the
// fragment up to configurable node and depth bounds, which is exactly what
// the finite-fragment experiments need. Build records only interned node
// data — the ID plane: each node's producing TGD, trigger identity,
// parents, predicate, argument TermIDs and depth. The *Node view (atoms,
// chase.Trigger values, children) is built from it once, on the first
// call that needs it.
package ochase

import (
	"slices"
	"sort"
	"sync"

	"airct/internal/chase"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// NodeID indexes a node within its Graph.
type NodeID int

// Node is a vertex of the real oblivious chase: an atom labeled with the
// trigger that produced it (nil for database atoms, the paper's ⊥) and the
// ordered parent tuple — Parents[i] is the node matched to the i-th body
// atom of the trigger's TGD. Nodes belong to their graph's view: read-only.
type Node struct {
	ID      NodeID
	Atom    logic.Atom
	Trigger *chase.Trigger // nil ⇔ database atom
	Parents []NodeID       // empty ⇔ database atom
	Depth   int            // 0 for database atoms, 1 + max parent depth otherwise
}

// IsDatabase reports whether the node is a database atom (τ(v) = ⊥).
func (n *Node) IsDatabase() bool { return n.Trigger == nil }

// BuildOptions bounds the materialised fragment of ochase(D,T).
type BuildOptions struct {
	// MaxNodes stops construction when this many nodes exist (0: 10_000).
	MaxNodes int
	// MaxDepth only creates nodes up to this derivation depth (0: no bound).
	MaxDepth int
}

func (o BuildOptions) maxNodes() int {
	if o.MaxNodes <= 0 {
		return 10_000
	}
	return o.MaxNodes
}

// Graph is a finite fragment of the real oblivious chase of D w.r.t. T.
// Only Build writes a Graph; once it returns, any number of goroutines may
// read it, the view included (it is built under a sync.Once).
type Graph struct {
	Set      *tgds.Set
	Database *instance.Database
	// Complete reports whether the graph is the whole of ochase(D,T):
	// construction reached a fixpoint within the bounds.
	Complete bool

	// The ID plane, per node in creation order: the producing TGD index
	// (-1 for a database node), its trigger's ID in trig, the parents
	// (node i's are parents[parOff[i]:parOff[i+1]], in body order), the
	// predicate, the argument TermIDs (args[argOff[i]:argOff[i+1]]) and
	// the depth; and the nodes of each predicate in creation order. The
	// first len(facts) nodes are the database atoms, in Database order.
	itab    *logic.Interner
	trig    *logic.TupleTable // trigger identities: (TGD index, body-slot TermIDs)
	tgd     []int32
	trigID  []int32
	parents []NodeID
	parOff  []int32
	pred    []logic.PredID
	args    []logic.TermID
	argOff  []int32
	depth   []int32
	ofPred  [][]NodeID // per PredID
	facts   []logic.Atom

	guard []int // per TGD index: the guard's body index, -1 if unguarded

	// The node view, built from the ID plane by view.
	viewOnce sync.Once
	nodes    []*Node
	children [][]NodeID // per node ID, in creation order
}

func newGraph(db *instance.Database, set *tgds.Set) *Graph {
	g := &Graph{
		Set: set, Database: db, itab: logic.NewInterner(), trig: logic.NewTupleTable(64),
		parOff: []int32{0}, argOff: []int32{0}, facts: db.Atoms(), guard: make([]int, len(set.TGDs)),
	}
	for i, t := range set.TGDs {
		g.guard[i] = t.GuardIndex()
	}
	return g
}

// Build materialises ochase(D,T) up to the given bounds.
//
// Matching runs on interned node data: each TGD body is compiled once to
// slot form (one slot per body variable, in sorted-variable order), and
// each body atom draws its candidates from the shortest posting that its
// already-bound arguments select — per predicate, or per (predicate,
// position, TermID) — always in node-creation order. A candidate match is
// a slot array, not a logic.Substitution. Matches are still enumerated
// body atom by body atom in creation order (a posting is the creation-order
// subsequence of its predicate's nodes that agree on one argument), and
// the (σ, h, parent tuple) identity and structural null naming are
// unchanged, so nodes, NodeIDs and null names come out in the same sequence
// as a substitution-based matcher's. A spawn appends to the ID plane only;
// no Node, chase.Trigger or logic.Substitution exists until the view is
// first read.
func Build(db *instance.Database, set *tgds.Set, opts BuildOptions) *Graph {
	g := newGraph(db, set)
	b := newBuildState(g, opts)
	for _, fact := range g.facts {
		b.addFact(fact)
	}
	frontierStart := 0
	for {
		if g.Len() >= b.maxNodes {
			g.Complete = false
			return g
		}
		next := g.Len()
		added := b.expand(frontierStart)
		frontierStart = next
		if !added {
			g.Complete = g.Len() < b.maxNodes
			return g
		}
	}
}

// nodeArgs returns node id's argument TermIDs.
func (g *Graph) nodeArgs(id NodeID) []logic.TermID { return g.args[g.argOff[id]:g.argOff[id+1]] }

// addNode appends a node to the ID plane: tgd is -1 for a database node,
// whose trigger ID is ignored.
func (g *Graph) addNode(tgd, trig int32, parents []NodeID, pid logic.PredID, args []logic.TermID, depth int32) NodeID {
	id := NodeID(len(g.tgd))
	g.tgd = append(g.tgd, tgd)
	g.trigID = append(g.trigID, trig)
	g.parents = append(g.parents, parents...)
	g.parOff = append(g.parOff, int32(len(g.parents)))
	g.pred = append(g.pred, pid)
	g.args = append(g.args, args...)
	g.argOff = append(g.argOff, int32(len(g.args)))
	g.depth = append(g.depth, depth)
	for int(pid) >= len(g.ofPred) {
		g.ofPred = append(g.ofPred, nil)
	}
	g.ofPred[pid] = append(g.ofPred[pid], id)
	return id
}

// slotAtom is a body or head atom in slot form. For body atoms bind[k]
// tells whether position k binds its slot (first occurrence in the body)
// or checks it; head arguments >= 0 are body slots (frontier variables),
// and -(k+1) is the k-th existential variable in sorted order.
type slotAtom struct {
	pid  logic.PredID
	args []int32
	bind []bool
}

// compiledTGD is one TGD laid out for matching and result construction.
type compiledTGD struct {
	vars     []logic.Term // sorted body variables: slot i holds vars[i]
	body     []slotAtom
	head     []slotAtom
	nExist   int
	preBound [][]int // per body atom: positions whose slot an earlier atom bound
}

func compileTGD(t tgds.TGD, itab *logic.Interner) compiledTGD {
	ct := compiledTGD{vars: t.BodyVars().Sorted()}
	slot := make(map[logic.Term]int32, len(ct.vars))
	for i, v := range ct.vars {
		slot[v] = int32(i)
	}
	bound := make([]bool, len(ct.vars))
	for _, a := range t.Body {
		sa := slotAtom{pid: itab.InternPred(a.Pred), args: make([]int32, len(a.Args)), bind: make([]bool, len(a.Args))}
		var pre []int
		seenHere := make([]bool, len(ct.vars))
		for k, v := range a.Args {
			s := slot[v]
			sa.args[k] = s
			switch {
			case bound[s]:
				pre = append(pre, k)
			case !seenHere[s]:
				sa.bind[k] = true
				seenHere[s] = true
			}
		}
		for s, ok := range seenHere {
			if ok {
				bound[s] = true
			}
		}
		ct.body = append(ct.body, sa)
		ct.preBound = append(ct.preBound, pre)
	}
	exist := make(map[logic.Term]int32)
	frontier := t.Frontier()
	for _, x := range t.HeadVars().Sorted() {
		if !frontier.Has(x) {
			exist[x] = int32(len(exist))
		}
	}
	ct.nExist = len(exist)
	for _, a := range t.Head {
		sa := slotAtom{pid: itab.InternPred(a.Pred), args: make([]int32, len(a.Args))}
		for k, v := range a.Args {
			if s, ok := slot[v]; ok {
				sa.args[k] = s
			} else {
				sa.args[k] = -(exist[v] + 1)
			}
		}
		ct.head = append(ct.head, sa)
	}
	return ct
}

// argKey names a (predicate, position, term) posting.
type argKey struct {
	pid logic.PredID
	pos int32
	tid logic.TermID
}

// buildState is Build's working state.
type buildState struct {
	g        *Graph
	maxNodes int
	maxDepth int32
	tgds     []compiledTGD
	byArg    map[argKey][]NodeID
	indexed  [][]bool // per PredID and position: some body atom selects candidates by it

	// g.trig interns trigger identities (σ, body bindings) — the key of the
	// structural nulls c^{σ,h}_x; trigNulls[t] is the first of trigger t's
	// nulls in nullIDs, minted in sorted-existential order when the
	// trigger first spawns. seen interns (trigger, parent tuple): one
	// probe answers "spawned before?".
	trigNulls []int32
	nullIDs   []logic.TermID
	namer     *logic.FreshNamer
	seen      *logic.TupleTable

	// The current round: matches draw parents from nodes below limit and
	// need one at or above frontierStart.
	limit, frontierStart NodeID
	added                bool

	// Per-match scratch.
	binding []logic.TermID
	parents []NodeID
	buf     []uint32
	argBuf  []logic.TermID
}

func newBuildState(g *Graph, opts BuildOptions) *buildState {
	b := &buildState{
		g:        g,
		maxNodes: opts.maxNodes(),
		maxDepth: int32(opts.MaxDepth),
		byArg:    make(map[argKey][]NodeID),
		namer:    logic.NewFreshNamer("n"),
		seen:     logic.NewTupleTable(64),
	}
	for _, t := range g.Set.TGDs {
		ct := compileTGD(t, g.itab)
		for i, pre := range ct.preBound {
			pat := ct.body[i]
			for int(pat.pid) >= len(b.indexed) {
				b.indexed = append(b.indexed, nil)
			}
			if b.indexed[pat.pid] == nil {
				b.indexed[pat.pid] = make([]bool, len(pat.args))
			}
			for _, k := range pre {
				b.indexed[pat.pid][k] = true
			}
		}
		b.tgds = append(b.tgds, ct)
	}
	return b
}

func (b *buildState) add(tgd, trig int32, parents []NodeID, pid logic.PredID, args []logic.TermID, depth int32) {
	id := b.g.addNode(tgd, trig, parents, pid, args, depth)
	if int(pid) >= len(b.indexed) {
		return
	}
	for k, on := range b.indexed[pid] {
		if on {
			key := argKey{pid, int32(k), args[k]}
			b.byArg[key] = append(b.byArg[key], id)
		}
	}
}

func (b *buildState) addFact(fact logic.Atom) {
	b.argBuf = b.argBuf[:0]
	for _, t := range fact.Args {
		b.argBuf = append(b.argBuf, b.g.itab.InternTerm(t))
	}
	b.add(-1, -1, nil, b.g.itab.InternPred(fact.Pred), b.argBuf, 0)
}

// expand performs one closure round: every (σ, h, parent-tuple) with at
// least one parent in the latest frontier (or any tuple in the first round)
// spawns a node. It reports whether any node was added.
func (b *buildState) expand(frontierStart int) bool {
	b.added = false
	b.limit = NodeID(b.g.Len()) // only match against pre-round nodes
	b.frontierStart = NodeID(frontierStart)
	for idx := range b.tgds {
		ct := &b.tgds[idx]
		b.binding = slices.Grow(b.binding[:0], len(ct.vars))[:len(ct.vars)]
		b.parents = slices.Grow(b.parents[:0], len(ct.body))[:len(ct.body)]
		b.match(idx, ct, 0, frontierStart == 0)
		if b.g.Len() >= b.maxNodes {
			break
		}
	}
	return b.added
}

// match enumerates the candidates of body atom i in creation order and
// recurses; it returns false once the node bound stops enumeration.
// inFrontier records whether some parent chosen so far lies in the latest
// frontier (always true in the first round).
func (b *buildState) match(idx int, ct *compiledTGD, i int, inFrontier bool) bool {
	if i == len(ct.body) {
		return b.spawn(idx, ct)
	}
	g := b.g
	pat := &ct.body[i]
	var cands []NodeID
	if int(pat.pid) < len(g.ofPred) {
		cands = g.ofPred[pat.pid]
	}
	for _, k := range ct.preBound[i] {
		post := b.byArg[argKey{pat.pid, int32(k), b.binding[pat.args[k]]}]
		if len(post) < len(cands) {
			cands = post
		}
	}
	if i == len(ct.body)-1 && !inFrontier {
		// A match with no parent in the latest frontier was spawned (or
		// refused) in an earlier round: the last atom must supply one.
		cands = cands[sort.Search(len(cands), func(j int) bool { return cands[j] >= b.frontierStart }):]
	}
	for _, cand := range cands {
		if cand >= b.limit {
			break
		}
		if b.maxDepth > 0 && g.depth[cand] >= b.maxDepth {
			continue // the child would lie below the depth bound
		}
		args := g.nodeArgs(cand)
		ok := true
		for k, s := range pat.args {
			if pat.bind[k] {
				b.binding[s] = args[k]
			} else if b.binding[s] != args[k] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		b.parents[i] = cand
		if !b.match(idx, ct, i+1, inFrontier || cand >= b.frontierStart) {
			return false
		}
	}
	return true
}

// spawn handles one complete match: unless its (σ, h, parent tuple) was
// spawned before, it creates one node per head atom (Definition 3.3 is
// stated for single-head TGDs; multi-head sets get one node per head atom
// sharing the parent tuple). It returns false once the node bound is hit.
func (b *buildState) spawn(idx int, ct *compiledTGD) bool {
	g := b.g
	b.buf = append(b.buf[:0], uint32(idx))
	for _, tid := range b.binding {
		b.buf = append(b.buf, uint32(tid))
	}
	trigID, newTrig := g.trig.Intern(b.buf)
	b.buf = append(b.buf[:0], uint32(trigID))
	for _, p := range b.parents {
		b.buf = append(b.buf, uint32(p))
	}
	if _, isNew := b.seen.Intern(b.buf); !isNew {
		return true
	}
	if newTrig {
		b.trigNulls = append(b.trigNulls, int32(len(b.nullIDs)))
		for k := 0; k < ct.nExist; k++ {
			b.nullIDs = append(b.nullIDs, g.itab.InternTerm(b.namer.NextNull()))
		}
	}
	nulls := b.nullIDs[b.trigNulls[trigID]:][:ct.nExist]
	depth := int32(0)
	for _, p := range b.parents {
		if d := g.depth[p] + 1; d > depth {
			depth = d
		}
	}
	for _, ha := range ct.head {
		b.argBuf = b.argBuf[:0]
		for _, s := range ha.args {
			if s >= 0 {
				b.argBuf = append(b.argBuf, b.binding[s])
			} else {
				b.argBuf = append(b.argBuf, nulls[-s-1])
			}
		}
		b.add(int32(idx), trigID, b.parents, ha.pid, b.argBuf, depth)
	}
	b.added = true
	return g.Len() < b.maxNodes
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.tgd) }

// IsDatabaseNode reports whether node id is a database atom.
func (g *Graph) IsDatabaseNode(id NodeID) bool { return g.tgd[id] < 0 }

// Parents returns node id's parent tuple in body order (empty for a
// database node). The slice belongs to the graph: read-only.
func (g *Graph) Parents(id NodeID) []NodeID { return g.parents[g.parOff[id]:g.parOff[id+1]] }

// GuardSlot returns the body index of the guard of the TGD that produced
// node id, or -1 for a database node and for a node of an unguarded TGD.
func (g *Graph) GuardSlot(id NodeID) int {
	if g.IsDatabaseNode(id) {
		return -1
	}
	return g.guard[g.tgd[id]]
}

// DatabaseAtom returns the atom of database node id: the Database's fact
// at the same index.
func (g *Graph) DatabaseAtom(id NodeID) logic.Atom { return g.facts[id] }

// view returns the *Node view, building it from the ID plane on first
// use: a database node carries its Database fact; any other node an atom
// decoded from its TermIDs and the chase.Trigger of its trigger identity,
// one per identity.
func (g *Graph) view() []*Node {
	g.viewOnce.Do(func() {
		n := g.Len()
		nodes := make([]Node, n)
		parents := slices.Clone(g.parents)
		terms := make([]logic.Term, len(g.args))
		for i, tid := range g.args {
			terms[i] = g.itab.Term(tid)
		}
		triggers := make([]*chase.Trigger, g.trig.Len())
		g.nodes = make([]*Node, n)
		g.children = make([][]NodeID, n)
		for i := range nodes {
			id, nd := NodeID(i), &nodes[i]
			g.nodes[i] = nd
			nd.ID, nd.Depth = id, int(g.depth[i])
			if g.IsDatabaseNode(id) {
				nd.Atom = g.facts[i]
				continue
			}
			lo, hi := g.argOff[i], g.argOff[i+1]
			nd.Atom = logic.Atom{Pred: g.itab.Pred(g.pred[i]), Args: terms[lo:hi:hi]}
			plo, phi := g.parOff[i], g.parOff[i+1]
			nd.Parents = parents[plo:phi:phi]
			if triggers[g.trigID[i]] == nil {
				triggers[g.trigID[i]] = g.trigger(g.trigID[i])
			}
			nd.Trigger = triggers[g.trigID[i]]
			for _, p := range nd.Parents {
				g.children[p] = append(g.children[p], id)
			}
		}
	})
	return g.nodes
}

// trigger decodes a trigger identity: its TGD and the bindings of the
// TGD's body variables, in sorted-variable order.
func (g *Graph) trigger(id int32) *chase.Trigger {
	tup := g.trig.Tuple(id)
	idx := int(tup[0])
	t := g.Set.TGDs[idx]
	vars := t.BodyVars().Sorted()
	h := make(logic.Substitution, len(vars))
	for s, v := range vars {
		h[v] = g.itab.Term(logic.TermID(tup[1+s]))
	}
	return &chase.Trigger{TGDIndex: idx, TGD: t, H: h}
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.view()[id] }

// Nodes returns all nodes in creation order. The slice belongs to the
// graph: read-only.
func (g *Graph) Nodes() []*Node { return g.view() }

// Children returns the node IDs whose parent tuples include id, once per
// occurrence, in creation order.
func (g *Graph) Children(id NodeID) []NodeID {
	g.view()
	return g.children[id]
}

// AtomSet returns the *set* of atoms labelling the graph — by the remark in
// Section 3.1 this coincides with the (ordinary) oblivious chase of D
// w.r.t. T when the graph is complete.
func (g *Graph) AtomSet() *instance.Instance {
	out := instance.New()
	for _, n := range g.view() {
		out.Add(n.Atom)
	}
	return out
}

// MultisetSize returns the number of nodes (atom copies); AtomSet().Len()
// counts distinct atoms.
func (g *Graph) MultisetSize() int { return g.Len() }

// NodesByAtom returns the nodes labelled with the given atom, in creation
// order — the copies of the atom in the multiset.
func (g *Graph) NodesByAtom(a logic.Atom) []*Node {
	var out []*Node
	pid, ok := g.itab.LookupPred(a.Pred)
	if !ok || int(pid) >= len(g.ofPred) {
		return nil
	}
	nodes := g.view()
	for _, id := range g.ofPred[pid] {
		if n := nodes[id]; n.Atom.Equal(a) {
			out = append(out, n)
		}
	}
	return out
}

// GuardParent returns the guard-parent of the node: the parent matched to
// the guard atom of the producing TGD (Appendix C.2). It returns false for
// database nodes and for nodes produced by unguarded TGDs.
func (g *Graph) GuardParent(id NodeID) (NodeID, bool) {
	gi := g.GuardSlot(id)
	if gi < 0 {
		return 0, false
	}
	return g.Parents(id)[gi], true
}

// SideParents returns the parents other than the guard, in body order.
func (g *Graph) SideParents(id NodeID) []NodeID {
	if g.IsDatabaseNode(id) {
		return nil
	}
	gi := g.GuardSlot(id)
	var out []NodeID
	for i, p := range g.Parents(id) {
		if i != gi {
			out = append(out, p)
		}
	}
	return out
}

// Stops reports λ(v) ≺s λ(u): there is a homomorphism h′ with
// h′(λ(u)) = λ(v) fixing every frontier term of u's trigger (Section 3.1).
// It is false whenever u is a database node (no trigger to deactivate).
func (g *Graph) Stops(v, u NodeID) bool {
	if g.IsDatabaseNode(u) {
		return false
	}
	nodes := g.view()
	return chase.Stops(nodes[v].Atom, nodes[u].Atom, chase.FrontierTerms(*nodes[u].Trigger))
}

// Before reports the one-step before relation v ≺b u:
// v is a database node and u is not, or v ≺p u, or u ≺s v.
func (g *Graph) Before(v, u NodeID) bool {
	if g.IsDatabaseNode(v) && !g.IsDatabaseNode(u) {
		return true
	}
	return g.IsParent(v, u) || g.Stops(u, v)
}

// IsParent reports v ≺p u.
func (g *Graph) IsParent(v, u NodeID) bool { return slices.Contains(g.Parents(u), v) }
