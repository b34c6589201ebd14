package jointree

import (
	"testing"

	"airct/internal/logic"
)

func c(s string) logic.Term { return logic.Const(s) }

func TestAcyclicChain(t *testing.T) {
	atoms := []logic.Atom{
		logic.MustAtom("R", c("a"), c("b")),
		logic.MustAtom("S", c("b"), c("x")),
		logic.MustAtom("T", c("x"), c("y")),
	}
	tree, ok := Build(atoms)
	if !ok {
		t.Fatal("chain is acyclic")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(tree.Nodes) != 3 {
		t.Errorf("Len = %d", len(tree.Nodes))
	}
}

func TestCyclicTriangle(t *testing.T) {
	// R(a,b), S(b,c), T(c,a): the classic cyclic hypergraph.
	atoms := []logic.Atom{
		logic.MustAtom("R", c("a"), c("b")),
		logic.MustAtom("S", c("b"), c("cc")),
		logic.MustAtom("T", c("cc"), c("a")),
	}
	if IsAcyclic(atoms) {
		t.Fatal("triangle is cyclic")
	}
}

func TestTriangleWithGuardIsAcyclic(t *testing.T) {
	// Adding a guard G(a,b,c) covering all vertices makes it acyclic.
	atoms := []logic.Atom{
		logic.MustAtom("R", c("a"), c("b")),
		logic.MustAtom("S", c("b"), c("cc")),
		logic.MustAtom("T", c("cc"), c("a")),
		logic.MustAtom("G", c("a"), c("b"), c("cc")),
	}
	tree, ok := Build(atoms)
	if !ok {
		t.Fatal("guarded triangle is acyclic")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// The guard must be the root (everything folds into it).
	if tree.Nodes[tree.Root].Atom.Pred.Name != "G" {
		t.Errorf("root = %v, want the guard", tree.Nodes[tree.Root].Atom)
	}
}

func TestSingleAtomAndEmpty(t *testing.T) {
	tree, ok := Build([]logic.Atom{logic.MustAtom("R", c("a"))})
	if !ok || len(tree.Nodes) != 1 || tree.Root != 0 {
		t.Error("single atom is trivially acyclic")
	}
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
	empty, ok := Build(nil)
	if !ok || len(empty.Nodes) != 0 {
		t.Error("empty instance is acyclic")
	}
	if err := empty.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDuplicateAtomsAreDistinctNodes(t *testing.T) {
	atoms := []logic.Atom{
		logic.MustAtom("R", c("a"), c("b")),
		logic.MustAtom("R", c("a"), c("b")),
	}
	tree, ok := Build(atoms)
	if !ok {
		t.Fatal("duplicates are acyclic")
	}
	if len(tree.Nodes) != 2 {
		t.Errorf("multiset semantics: 2 nodes, got %d", len(tree.Nodes))
	}
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDisconnectedComponentsAcyclic(t *testing.T) {
	atoms := []logic.Atom{
		logic.MustAtom("R", c("a"), c("b")),
		logic.MustAtom("S", c("x"), c("y")),
	}
	tree, ok := Build(atoms)
	if !ok {
		t.Fatal("disconnected pairs are acyclic")
	}
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesDisconnectedTerm(t *testing.T) {
	// Hand-build an invalid tree: a term appearing at two nodes that are
	// not adjacent through nodes mentioning it.
	bad := &JoinTree{
		Root: 0,
		Nodes: []Node{
			{ID: 0, Atom: logic.MustAtom("R", c("a")), Parent: -1, Children: []int{1}},
			{ID: 1, Atom: logic.MustAtom("S", c("b")), Parent: 0, Children: []int{2}},
			{ID: 2, Atom: logic.MustAtom("T", c("a")), Parent: 1},
		},
	}
	if err := bad.Validate(); err == nil {
		t.Error("term a spans disconnected nodes; Validate must fail")
	}
}

func TestValidateCatchesBrokenLinks(t *testing.T) {
	bad := &JoinTree{
		Root: 0,
		Nodes: []Node{
			{ID: 0, Atom: logic.MustAtom("R", c("a")), Parent: -1},
			{ID: 1, Atom: logic.MustAtom("S", c("a")), Parent: 0}, // not in children
		},
	}
	if err := bad.Validate(); err == nil {
		t.Error("parent/child inconsistency must fail")
	}
	twoRoots := &JoinTree{
		Root: 0,
		Nodes: []Node{
			{ID: 0, Atom: logic.MustAtom("R", c("a")), Parent: -1},
			{ID: 1, Atom: logic.MustAtom("S", c("a")), Parent: -1},
		},
	}
	if err := twoRoots.Validate(); err == nil {
		t.Error("two roots must fail")
	}
}

func TestBiggerCycleDetected(t *testing.T) {
	// 4-cycle without guard.
	atoms := []logic.Atom{
		logic.MustAtom("E", c("1"), c("2")),
		logic.MustAtom("E", c("2"), c("3")),
		logic.MustAtom("E", c("3"), c("4")),
		logic.MustAtom("E", c("4"), c("1")),
	}
	if IsAcyclic(atoms) {
		t.Error("4-cycle is cyclic")
	}
	// Breaking the cycle restores acyclicity.
	if !IsAcyclic(atoms[:3]) {
		t.Error("path is acyclic")
	}
}
