package ochase

import (
	"fmt"
	"sort"

	"airct/internal/chase"
)

// CheckChaseable verifies the conditions of Definition 5.2 on a finite set
// A of graph nodes:
//
//  1. for each α ∈ A, {β ∈ A : β ≺b⁺ α} is finite — automatic for finite A;
//  2. A is parent-closed: every parent of an A-node is in A;
//  3. the before relation ≺b restricted to A is acyclic.
//
// It returns nil when A is chaseable and a descriptive error otherwise.
func (g *Graph) CheckChaseable(A []NodeID) error {
	inA := make(map[NodeID]struct{}, len(A))
	for _, id := range A {
		inA[id] = struct{}{}
	}
	// Condition 2: parent closure.
	nodes := g.view()
	for _, id := range A {
		for _, p := range g.Parents(id) {
			if _, ok := inA[p]; !ok {
				return fmt.Errorf("ochase: not parent-closed: parent %d (%v) of %d (%v) is outside A",
					p, nodes[p].Atom, id, nodes[id].Atom)
			}
		}
	}
	// Condition 3: acyclicity of ≺b over A (pairwise edges, DFS).
	adj := g.beforeAdjacency(A)
	color := make(map[NodeID]int, len(A)) // 0 white, 1 grey, 2 black
	var cycleAt NodeID
	var dfs func(v NodeID) bool
	dfs = func(v NodeID) bool {
		color[v] = 1
		for _, u := range adj[v] {
			switch color[u] {
			case 1:
				cycleAt = u
				return false
			case 0:
				if !dfs(u) {
					return false
				}
			}
		}
		color[v] = 2
		return true
	}
	for _, id := range A {
		if color[id] == 0 && !dfs(id) {
			return fmt.Errorf("ochase: ≺b has a cycle through node %d (%v)", cycleAt, nodes[cycleAt].Atom)
		}
	}
	return nil
}

// beforeAdjacency computes the one-step ≺b edges among the given nodes.
func (g *Graph) beforeAdjacency(A []NodeID) map[NodeID][]NodeID {
	adj := make(map[NodeID][]NodeID, len(A))
	for _, v := range A {
		for _, u := range A {
			if v != u && g.Before(v, u) {
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj
}

// ExtractDerivation realises the (2) ⇒ (1) direction of Theorem 5.3 on a
// finite fragment: given a chaseable set A, it builds a restricted chase
// derivation of D w.r.t. T that generates exactly the non-database atoms of
// A, adding atoms in a ≺b-compatible order and verifying at every step that
// the producing trigger is active (Fact 3.5). Database atoms of D outside A
// participate in I_0 regardless, matching the theorem's statement.
func (g *Graph) ExtractDerivation(A []NodeID) (*chase.Derivation, error) {
	if err := g.CheckChaseable(A); err != nil {
		return nil, err
	}
	adj := g.beforeAdjacency(A)
	indeg := make(map[NodeID]int, len(A))
	for _, id := range A {
		indeg[id] = 0
	}
	for _, targets := range adj {
		for _, u := range targets {
			indeg[u]++
		}
	}
	// Kahn's algorithm with deterministic (smallest-ID) tie-breaking.
	var ready []NodeID
	for _, id := range A {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	d := chase.NewDerivation(g.Database, g.Set)
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		id := ready[0]
		ready = ready[1:]
		n := g.Node(id)
		if !n.IsDatabase() {
			if err := d.Apply(*n.Trigger); err != nil {
				return nil, fmt.Errorf("ochase: node %d (%v): %w", id, n.Atom, err)
			}
		}
		for _, u := range adj[id] {
			indeg[u]--
			if indeg[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	if d.Len() != len(A)-g.countDatabaseNodes(A) {
		return nil, fmt.Errorf("ochase: topological order incomplete (cycle left %d nodes)",
			len(A)-g.countDatabaseNodes(A)-d.Len())
	}
	return d, nil
}

func (g *Graph) countDatabaseNodes(A []NodeID) int {
	n := 0
	for _, id := range A {
		if g.IsDatabaseNode(id) {
			n++
		}
	}
	return n
}

// ChaseableFromRun realises the (1) ⇒ (2) direction of Theorem 5.3 on a
// finite prefix: given a restricted chase run of the same database and set,
// it selects for every derivation step the unique graph node whose trigger
// and parent occurrences match the run, returning the node set
// A = D ∪ {selected nodes}. The graph must contain the run's atoms (build
// it deep enough).
func ChaseableFromRun(g *Graph, run *chase.Run) ([]NodeID, error) {
	chosen := make(map[string]NodeID) // atom key -> designated occurrence
	var A []NodeID
	for _, n := range g.Nodes() {
		if n.IsDatabase() {
			chosen[n.Atom.Key()] = n.ID
			A = append(A, n.ID)
		}
	}
	for i, step := range run.Steps {
		trKey := step.Trigger.Key()
		// The parent occurrences this step used: the chosen nodes of the
		// body image atoms.
		bodyImage := step.Trigger.H.ApplyAtoms(step.Trigger.TGD.Body)
		want := make([]NodeID, len(bodyImage))
		for j, a := range bodyImage {
			id, ok := chosen[a.Key()]
			if !ok {
				return nil, fmt.Errorf("ochase: step %d: body atom %v has no designated occurrence", i, a)
			}
			want[j] = id
		}
		node := g.findNode(trKey, want)
		if node == nil {
			return nil, fmt.Errorf("ochase: step %d: no node for trigger %v with parents %v (graph too shallow?)",
				i, step.Trigger, want)
		}
		for _, a := range step.Added {
			if _, dup := chosen[a.Key()]; !dup {
				chosen[a.Key()] = node.ID
			}
		}
		A = append(A, node.ID)
	}
	return A, nil
}

func (g *Graph) findNode(triggerKey string, parents []NodeID) *Node {
	for _, n := range g.Nodes() {
		if n.IsDatabase() || n.Trigger.Key() != triggerKey {
			continue
		}
		if len(n.Parents) != len(parents) {
			continue
		}
		match := true
		for i := range parents {
			if n.Parents[i] != parents[i] {
				match = false
				break
			}
		}
		if match {
			return n
		}
	}
	return nil
}
