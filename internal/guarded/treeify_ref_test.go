package guarded

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"airct/internal/jointree"
	"airct/internal/ochase"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// This file keeps the node-view Treeify — guard roots by memoised recursion
// over *Node values, guard and side parents read off each node's trigger,
// pairs keyed by rendered strings, a hand-rolled sort — as the reference
// the ID-plane Treeify is checked against (TestTreeifyMatchesReference).

// refGuardParent is GuardParent on the node view.
func refGuardParent(g *ochase.Graph, id ochase.NodeID) (ochase.NodeID, bool) {
	n := g.Node(id)
	if n.IsDatabase() {
		return 0, false
	}
	gi := n.Trigger.TGD.GuardIndex()
	if gi < 0 {
		return 0, false
	}
	return n.Parents[gi], true
}

// refSideParents is SideParents on the node view.
func refSideParents(g *ochase.Graph, id ochase.NodeID) []ochase.NodeID {
	n := g.Node(id)
	if n.IsDatabase() {
		return nil
	}
	gi := n.Trigger.TGD.GuardIndex()
	var out []ochase.NodeID
	for i, p := range n.Parents {
		if i != gi {
			out = append(out, p)
		}
	}
	return out
}

// refTreeify is the reference for treeify: the construction without
// Treeify's guardedness check.
func refTreeify(g *ochase.Graph, opts TreeifyOptions) (*Treeification, error) {
	if g.Database.Len() == 0 {
		return nil, fmt.Errorf("guarded: empty database")
	}
	// Database atoms are the first nodes.
	var dbNodes []ochase.NodeID
	for _, n := range g.Nodes() {
		if n.IsDatabase() {
			dbNodes = append(dbNodes, n.ID)
		}
	}
	// Guard roots.
	root := make(map[ochase.NodeID]ochase.NodeID)
	var rootOf func(id ochase.NodeID) (ochase.NodeID, bool)
	rootOf = func(id ochase.NodeID) (ochase.NodeID, bool) {
		if r, ok := root[id]; ok {
			return r, true
		}
		if g.Node(id).IsDatabase() {
			root[id] = id
			return id, true
		}
		gp, ok := refGuardParent(g, id)
		if !ok {
			return 0, false
		}
		r, ok := rootOf(gp)
		if ok {
			root[id] = r
		}
		return r, ok
	}
	// α∞: database node with the largest guard subtree.
	subtreeSize := make(map[ochase.NodeID]int)
	for _, n := range g.Nodes() {
		if r, ok := rootOf(n.ID); ok {
			subtreeSize[r]++
		}
	}
	alphaInf := dbNodes[0]
	for _, id := range dbNodes {
		if subtreeSize[id] > subtreeSize[alphaInf] {
			alphaInf = id
		}
	}
	// Remote-side-parent situations and the longs-for graph.
	longsFor := make(map[ochase.NodeID]map[ochase.NodeID]bool)
	var situations []RemoteSituation
	pairSeen := make(map[string]bool)
	addEdge := func(a, b ochase.NodeID) {
		if longsFor[a] == nil {
			longsFor[a] = make(map[ochase.NodeID]bool)
		}
		longsFor[a][b] = true
	}
	for _, n := range g.Nodes() {
		if n.IsDatabase() {
			continue
		}
		rAlpha, ok := rootOf(n.ID)
		if !ok {
			continue
		}
		for _, sp := range refSideParents(g, n.ID) {
			spNode := g.Node(sp)
			if spNode.IsDatabase() {
				if opts.IncludeDirect && sp != rAlpha {
					addEdge(rAlpha, sp)
					situations = append(situations, RemoteSituation{
						Alpha: rAlpha, AlphaPrime: n.ID, Beta: sp, BetaPrime: sp,
					})
					pairSeen[fmt.Sprintf("%d|%d", sp, sp)] = true
				}
				continue
			}
			rBeta, ok := rootOf(sp)
			if !ok || rBeta == rAlpha {
				continue
			}
			addEdge(rAlpha, rBeta)
			situations = append(situations, RemoteSituation{
				Alpha: rAlpha, AlphaPrime: n.ID, Beta: rBeta, BetaPrime: sp,
			})
			pairSeen[fmt.Sprintf("%d|%d", rBeta, sp)] = true
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
	tr := &Treeification{
		AlphaInf: g.Node(alphaInf).Atom,
		EllInf:   ellInf,
		LongsFor: make(map[string][]string),
	}
	for a, targets := range longsFor {
		for b := range targets {
			tr.LongsFor[g.Node(a).Atom.Key()] = append(tr.LongsFor[g.Node(a).Atom.Key()], g.Node(b).Atom.Key())
		}
	}
	tr.Situations = situations
	tree := &jointree.JoinTree{Root: 0}
	// Node construction: breadth-first over longs-for paths.
	type pending struct {
		nodeID int // index in tree
		dbNode ochase.NodeID
		depth  int
	}
	rootAtom := g.Node(alphaInf).Atom
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
		parentOrig := g.Node(cur.dbNode).Atom
		for _, beta := range refSortedKeys(longsFor[cur.dbNode]) {
			betaAtom := g.Node(beta).Atom
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

func refSortedKeys(m map[ochase.NodeID]bool) []ochase.NodeID {
	var out []ochase.NodeID
	for k := range m {
		out = append(out, k)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// rootless reports whether some node of g has no guard root.
func rootless(g *ochase.Graph) bool {
	for _, n := range g.Nodes() {
		id := n.ID
		for !g.Node(id).IsDatabase() {
			gp, ok := refGuardParent(g, id)
			if !ok {
				return true
			}
			id = gp
		}
	}
	return false
}

// compareTreeify checks treeify against the reference on one fragment,
// under both readings of the longs-for relation: the whole Treeification,
// each LongsFor list as a set (the reference lists it in map order), or
// the same error. It returns how many readings built a treeification.
func compareTreeify(t *testing.T, where string, g *ochase.Graph) int {
	t.Helper()
	built := 0
	for _, opts := range []TreeifyOptions{{IncludeDirect: true}, {}} {
		got, gotErr := treeify(g, opts)
		want, wantErr := refTreeify(g, opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %+v: error %v, reference %v", where, opts, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		built++
		for _, tr := range []*Treeification{got, want} {
			for _, keys := range tr.LongsFor {
				slices.Sort(keys)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v: treeification\n%+v\nreference\n%+v", where, opts, got, want)
		}
	}
	return built
}

// TestTreeifyMatchesReference pins the ID-plane Treeify to the node-view
// reference on every treeification base of TestCompiledBuildMatchesReference's
// sets (the corpus and the seven families at n = 2..6, at the pool's
// (600, 6) bounds) and on testdata/*.chase at the experiments' (400, 8).
// The construction runs without Treeify's guardedness check, so unguarded
// sets, and a guarded chain behind an unguarded rule, put nodes without a
// guard root in the fragments; Treeify itself must refuse each such set.
func TestTreeifyMatchesReference(t *testing.T) {
	sets := workload.Corpus()
	for n := 2; n <= 6; n++ {
		sets = append(sets,
			workload.DatalogChain(n), workload.ExistentialChain(n), workload.LinearCycle(n),
			workload.SwapIntro(n), workload.StickyJoin(n), workload.StickyRelay(n), workload.GuardedLadder(n))
	}
	unguarded, err := parser.ParseTGDs(`
		u: R(X,Y), P(Y,Z) -> T(X,Z).
		g1: T(X,Z) -> R(Z,W).
		g2: R(X,Y), S(Y) -> P(Y,X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// A base R(s0,s0) matches sw's guard and side atom to one database
	// node, which is then its own side parent.
	selfSide, err := parser.ParseTGDs(`sw: R(X,Y), R(Y,X) -> R(Y,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, workload.Labeled{Name: "unguarded-feeder", Set: unguarded}, workload.Labeled{Name: "self-side", Set: selfSide})
	graphs, built, withRootless := 0, 0, 0
	check := func(where string, set *tgds.Set, g *ochase.Graph) {
		t.Helper()
		if _, err := Treeify(g, TreeifyOptions{}); (err == nil) != set.IsGuarded() {
			t.Fatalf("%s: Treeify error %v on a set with guarded = %v", where, err, set.IsGuarded())
		}
		built += compareTreeify(t, where, g)
		graphs++
		if rootless(g) {
			withRootless++
		}
	}
	for _, l := range sets {
		e := newSeedEnum(l.Set, MaxSeeds)
		for e.freeze() {
		}
		for base := range e.nbase {
			g := ochase.Build(seedDatabase(e.pool[base]), l.Set, ochase.BuildOptions{MaxNodes: 600, MaxDepth: 6})
			check(fmt.Sprintf("%s base seed %d", l.Name, base), l.Set, g)
		}
	}
	files, err := filepath.Glob("../../testdata/*.chase")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: 400, MaxDepth: 8})
		check(filepath.Base(f), prog.TGDs, g)
	}
	if withRootless == 0 || built < graphs {
		t.Fatalf("%d fragments, %d with nodes without a guard root, %d treeifications: the sets must cover both", graphs, withRootless, built)
	}
	t.Logf("%d fragments, %d with nodes without a guard root, %d treeifications", graphs, withRootless, built)
}
