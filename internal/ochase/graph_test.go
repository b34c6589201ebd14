package ochase

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"airct/internal/chase"
	"airct/internal/logic"
	"airct/internal/parser"
)

// example32 is Example 3.2/3.4 of the paper.
const example32 = `
	P(a,b).
	s1: P(X,Y) -> R(X,Y).
	s2: P(X,Y) -> S(X).
	s3: R(X,Y) -> S(X).
	s4: S(X) -> R(X,Y).
`

func TestExample34GraphShape(t *testing.T) {
	prog := parser.MustParse(example32)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 200})
	if g.Complete {
		t.Error("ochase of Example 3.4 is infinite; fragment must be incomplete")
	}
	// The *set* of atoms is the oblivious chase: exactly 4 atoms.
	atoms := g.AtomSet()
	if atoms.Len() != 4 {
		t.Errorf("oblivious chase has 4 atoms, got %v", atoms)
	}
	// The multiset keeps several copies of S(a): via s2 and via s3 (from
	// both copies of R-atoms).
	sCopies := g.NodesByAtom(logic.MustAtom("S", logic.Const("a")))
	if len(sCopies) < 2 {
		t.Errorf("S(a) must label several nodes, got %d", len(sCopies))
	}
	// The parents of the two earliest S(a) copies differ: one comes from
	// P(a,b) via s2, the other from R(a,b) via s3 (the ambiguity of
	// Example 3.2 made unambiguous).
	preds := map[string]bool{}
	for _, n := range sCopies {
		if len(n.Parents) != 1 {
			t.Fatalf("S(a) nodes have one parent, got %v", n.Parents)
		}
		preds[g.Node(n.Parents[0]).Atom.Pred.Name] = true
	}
	if !preds["P"] || !preds["R"] {
		t.Errorf("S(a) copies must have both P- and R-parents, got %v", preds)
	}
}

func TestDatabaseNodes(t *testing.T) {
	prog := parser.MustParse(example32)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 50})
	n := g.Node(0)
	if !n.IsDatabase() || n.Depth != 0 || len(n.Parents) != 0 {
		t.Errorf("node 0 must be the database atom: %+v", n)
	}
	if n.Atom.Pred.Name != "P" {
		t.Errorf("node 0 atom = %v", n.Atom)
	}
}

func TestStructuralNullSharing(t *testing.T) {
	// The two occurrences of the trigger (s4, x→a) — one for each S(a)
	// copy — must invent the *same* null (Definition 3.1's c^{σ,h}_x).
	prog := parser.MustParse(example32)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 200})
	var rAtoms []logic.Atom
	for _, n := range g.Nodes() {
		if !n.IsDatabase() && n.Trigger.TGD.Label == "s4" {
			rAtoms = append(rAtoms, n.Atom)
		}
	}
	if len(rAtoms) < 2 {
		t.Fatalf("expected several s4 nodes, got %d", len(rAtoms))
	}
	for _, a := range rAtoms[1:] {
		if !a.Equal(rAtoms[0]) {
			t.Errorf("same trigger must produce the same atom: %v vs %v", rAtoms[0], a)
		}
	}
}

func TestMaxDepth(t *testing.T) {
	prog := parser.MustParse(example32)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 10_000, MaxDepth: 3})
	for _, n := range g.Nodes() {
		if n.Depth > 3 {
			t.Fatalf("node %d has depth %d > 3", n.ID, n.Depth)
		}
	}
	if !g.Complete {
		t.Error("depth-bounded build must reach a fixpoint here")
	}
}

func TestCompleteOnTerminatingSet(t *testing.T) {
	prog := parser.MustParse(`
		P(a,b).
		s1: P(X,Y) -> R(X,Y).
		s2: R(X,Y) -> S(X).
	`)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 100})
	if !g.Complete {
		t.Fatal("finite ochase must be built completely")
	}
	if g.Len() != 3 {
		t.Errorf("nodes = %d, want 3", g.Len())
	}
	// Children bookkeeping.
	if kids := g.Children(0); len(kids) != 1 {
		t.Errorf("P(a,b) children = %v", kids)
	}
}

func TestGuardAndSideParents(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b). T(b).
		s1: R(X,Y), T(Y) -> P(X,Y).
	`)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 50})
	var pNode *Node
	for _, n := range g.Nodes() {
		if n.Atom.Pred.Name == "P" {
			pNode = n
		}
	}
	if pNode == nil {
		t.Fatal("P atom missing")
	}
	gp, ok := g.GuardParent(pNode.ID)
	if !ok {
		t.Fatal("guard parent expected")
	}
	if g.Node(gp).Atom.Pred.Name != "R" {
		t.Errorf("guard parent = %v, want the R atom", g.Node(gp).Atom)
	}
	side := g.SideParents(pNode.ID)
	if len(side) != 1 || g.Node(side[0]).Atom.Pred.Name != "T" {
		t.Errorf("side parents = %v", side)
	}
	// Database nodes have neither.
	if _, ok := g.GuardParent(0); ok {
		t.Error("database node has no guard parent")
	}
	if g.SideParents(0) != nil {
		t.Error("database node has no side parents")
	}
}

func TestStopsOnGraph(t *testing.T) {
	// s4's product R(a,n) is stopped by R(a,b) (map n→b, fix frontier a).
	prog := parser.MustParse(example32)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 200})
	var rab, ran NodeID
	found := 0
	for _, n := range g.Nodes() {
		if n.Atom.Pred.Name == "R" {
			if n.Atom.Args[1].IsNull() && found&2 == 0 {
				ran = n.ID
				found |= 2
			}
			if n.Atom.Args[1] == logic.Const("b") && found&1 == 0 {
				rab = n.ID
				found |= 1
			}
		}
	}
	if found != 3 {
		t.Fatal("need both R(a,b) and R(a,null) nodes")
	}
	if !g.Stops(rab, ran) {
		t.Error("R(a,b) must stop R(a,null)")
	}
	if g.Stops(ran, rab) {
		t.Error("R(a,null) must not stop the database-frontier copy? (R(a,b) is produced by s1 with frontier {a,b}; mapping b→null moves a frontier term)")
	}
	// Nothing stops a database node.
	if g.Stops(rab, 0) {
		t.Error("database nodes are never stopped")
	}
}

func TestBeforeRelation(t *testing.T) {
	prog := parser.MustParse(example32)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 200})
	// Database atom comes before every non-database node.
	for _, n := range g.Nodes() {
		if !n.IsDatabase() {
			if !g.Before(0, n.ID) {
				t.Fatalf("database node must be ≺b %d", n.ID)
			}
		}
	}
	// Parents come before children.
	for _, n := range g.Nodes() {
		for _, p := range n.Parents {
			if !g.Before(p, n.ID) {
				t.Fatalf("parent %d must be ≺b child %d", p, n.ID)
			}
			if !g.IsParent(p, n.ID) {
				t.Fatalf("IsParent(%d,%d) must hold", p, n.ID)
			}
		}
	}
}

func TestMultisetVersusSetGrowth(t *testing.T) {
	// E1-style check: the multiset (real oblivious) is strictly larger than
	// the atom set on Example 3.4's program.
	prog := parser.MustParse(example32)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 300})
	if g.MultisetSize() <= g.AtomSet().Len() {
		t.Errorf("multiset %d must exceed set %d", g.MultisetSize(), g.AtomSet().Len())
	}
}

func TestMultiHeadNodes(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b,b).
		mh: R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).
	`)
	g := Build(prog.Database, prog.TGDs, BuildOptions{MaxNodes: 20})
	// One trigger spawns two nodes sharing the parent tuple.
	var spawned []*Node
	for _, n := range g.Nodes() {
		if !n.IsDatabase() && n.Parents[0] == 0 {
			spawned = append(spawned, n)
		}
	}
	if len(spawned) < 2 {
		t.Fatalf("multi-head trigger must spawn 2 nodes, got %d", len(spawned))
	}
	if spawned[0].Atom.Args[1] != spawned[1].Atom.Args[0] {
		t.Error("shared existential null across head atoms")
	}
	_ = chase.Trigger{}
}

// graphReads is one reader's view of a graph: every node, every node's
// children, the copies of the first database atoms, and CheckChaseable on
// node prefixes (parent-closed, since parents precede children).
type graphReads struct {
	nodes    []Node
	children [][]NodeID
	byAtom   [][]NodeID
	checks   []string
}

// readGraph reads g starting at the reader's own entry point, so that
// concurrent readers race to build the view through different calls.
func readGraph(g *Graph, start int) graphReads {
	var r graphReads
	reads := []func(){
		func() {
			for _, n := range g.Nodes() {
				r.nodes = append(r.nodes, *n)
			}
		},
		func() {
			for id := range NodeID(g.Len()) {
				r.children = append(r.children, g.Children(id))
			}
		},
		func() {
			for _, a := range g.Database.Atoms() {
				var ids []NodeID
				for _, n := range g.NodesByAtom(a) {
					ids = append(ids, n.ID)
				}
				r.byAtom = append(r.byAtom, ids)
			}
		},
		func() {
			for _, k := range []int{1, 5, 20, g.Len()} {
				var A []NodeID
				for id := range NodeID(k) {
					A = append(A, id)
				}
				r.checks = append(r.checks, fmt.Sprint(g.CheckChaseable(A)))
			}
		},
	}
	for i := range reads {
		reads[(start+i)%len(reads)]()
	}
	return r
}

// TestGraphConcurrentReads reads one freshly built graph from several
// goroutines at once, so the view is built while they race for it, and
// requires every reader's results to equal a sequential read of an
// identical graph. CI runs it under -race.
func TestGraphConcurrentReads(t *testing.T) {
	prog := parser.MustParse(example32)
	opts := BuildOptions{MaxNodes: 60}
	want := readGraph(Build(prog.Database, prog.TGDs, opts), 0)
	if len(want.nodes) != 60 || want.checks[len(want.checks)-1] == "<nil>" {
		t.Fatalf("the graph must fill its bound and hold a ≺b cycle: %d nodes, checks %v", len(want.nodes), want.checks)
	}
	g := Build(prog.Database, prog.TGDs, opts)
	const readers = 8
	got := make([]graphReads, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = readGraph(g, i)
		}()
	}
	wg.Wait()
	for i, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("reader %d: %+v\nsequential: %+v", i, r, want)
		}
	}
}
