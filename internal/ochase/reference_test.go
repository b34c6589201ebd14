package ochase

import (
	"airct/internal/chase"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// This file keeps the substitution-based Build — candidates matched atom by
// atom against logic.Atom values with a logic.Substitution, results from
// chase.Result under a structural NullFactory — as the reference the
// compiled Build is checked against (identity_test.go). Its nodes are
// stored in a Graph so that everything downstream of Build (Treeify, the
// seed pool) can run on either.

// RefBuild is the reference Build, exported to the external identity test.
var RefBuild = refBuild

type refState struct {
	g        *Graph
	byPred   map[logic.Predicate][]*Node
	nulls    *chase.NullFactory
	itab     *logic.Interner
	seen     *logic.TupleTable
	seenBuf  []uint32
	bodyVars [][]logic.Term
}

func refBuild(db *instance.Database, set *tgds.Set, opts BuildOptions) *Graph {
	b := &refState{
		g:        newGraph(db, set),
		byPred:   make(map[logic.Predicate][]*Node),
		nulls:    chase.NewNullFactory(),
		itab:     logic.NewInterner(),
		seen:     logic.NewTupleTable(64),
		bodyVars: make([][]logic.Term, len(set.TGDs)),
	}
	g := b.g
	for i, t := range set.TGDs {
		b.bodyVars[i] = t.BodyVars().Sorted()
	}
	for _, fact := range db.Atoms() {
		b.addNode(fact, nil, nil)
	}
	frontierStart := 0
	for {
		if len(g.nodes) >= opts.maxNodes() {
			g.Complete = false
			return g
		}
		next := len(g.nodes)
		added := b.expand(frontierStart, opts)
		frontierStart = next
		if !added {
			g.Complete = len(g.nodes) < opts.maxNodes()
			return g
		}
	}
}

func (b *refState) addNode(atom logic.Atom, tr *chase.Trigger, parents []NodeID) {
	g := b.g
	depth := 0
	for _, p := range parents {
		if d := g.nodes[p].Depth + 1; d > depth {
			depth = d
		}
	}
	args := make([]logic.TermID, len(atom.Args))
	for i, t := range atom.Args {
		args[i] = g.itab.InternTerm(t)
	}
	id := g.addNode(atom, tr, parents, g.itab.InternPred(atom.Pred), args, int32(depth))
	b.byPred[atom.Pred] = append(b.byPred[atom.Pred], g.nodes[id])
}

func (b *refState) expand(frontierStart int, opts BuildOptions) bool {
	g := b.g
	added := false
	limit := len(g.nodes)
	for idx, t := range g.Set.TGDs {
		b.matchBody(t, limit, func(h logic.Substitution, parents []NodeID) bool {
			if frontierStart > 0 {
				inFrontier := false
				for _, p := range parents {
					if int(p) >= frontierStart {
						inFrontier = true
						break
					}
				}
				if !inFrontier {
					return true
				}
			}
			if opts.MaxDepth > 0 {
				d := 0
				for _, p := range parents {
					if pd := g.nodes[p].Depth + 1; pd > d {
						d = pd
					}
				}
				if d > opts.MaxDepth {
					return true
				}
			}
			b.seenBuf = b.seenBuf[:0]
			b.seenBuf = append(b.seenBuf, uint32(idx))
			for _, v := range b.bodyVars[idx] {
				b.seenBuf = append(b.seenBuf, uint32(b.itab.InternTerm(h.ApplyTerm(v))))
			}
			for _, p := range parents {
				b.seenBuf = append(b.seenBuf, uint32(p))
			}
			if _, isNew := b.seen.Intern(b.seenBuf); !isNew {
				return true
			}
			tr := chase.NewTrigger(idx, t, h)
			for _, atom := range chase.Result(tr, b.nulls) {
				trc := tr
				b.addNode(atom, &trc, append([]NodeID(nil), parents...))
			}
			added = true
			return len(g.nodes) < opts.maxNodes()
		})
		if len(g.nodes) >= opts.maxNodes() {
			return added
		}
	}
	return added
}

func (b *refState) matchBody(t tgds.TGD, limit int, yield func(logic.Substitution, []NodeID) bool) {
	h := logic.NewSubstitution()
	parents := make([]NodeID, len(t.Body))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(t.Body) {
			return yield(h, parents)
		}
		pat := t.Body[i]
		for _, cand := range b.byPred[pat.Pred] {
			if int(cand.ID) >= limit {
				continue
			}
			var trail []logic.Term
			ok := true
			for k, v := range pat.Args {
				got := cand.Atom.Args[k]
				if bound, has := h.Lookup(v); has {
					if bound != got {
						ok = false
						break
					}
					continue
				}
				h[v] = got
				trail = append(trail, v)
			}
			if ok {
				parents[i] = cand.ID
				if !rec(i + 1) {
					for _, v := range trail {
						delete(h, v)
					}
					return false
				}
			}
			for _, v := range trail {
				delete(h, v)
			}
		}
		return true
	}
	rec(0)
}
