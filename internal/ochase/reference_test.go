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
// compiled Build is checked against (identity_test.go). It fills a
// Graph's ID plane through the same addNode as Build, so that everything
// downstream of Build (Treeify, the seed pool) can run on either, and
// installs its own Node values as the graph's view, so a comparison of
// views compares Build's decoded nodes with the reference's.

// RefBuild is the reference Build, exported to the external identity test.
var RefBuild = refBuild

type refState struct {
	g        *Graph
	byPred   map[logic.Predicate][]*Node
	nulls    *chase.NullFactory
	seen     *logic.TupleTable
	seenBuf  []uint32
	bodyVars [][]logic.Term
}

func refBuild(db *instance.Database, set *tgds.Set, opts BuildOptions) *Graph {
	b := &refState{
		g:        newGraph(db, set),
		byPred:   make(map[logic.Predicate][]*Node),
		nulls:    chase.NewNullFactory(),
		seen:     logic.NewTupleTable(64),
		bodyVars: make([][]logic.Term, len(set.TGDs)),
	}
	g := b.g
	for i, t := range set.TGDs {
		b.bodyVars[i] = t.BodyVars().Sorted()
	}
	for _, fact := range g.facts {
		b.addNode(fact, nil, nil)
	}
	g.viewOnce.Do(func() {}) // the reference's nodes are the view
	frontierStart := 0
	for {
		if g.Len() >= opts.maxNodes() {
			g.Complete = false
			return g
		}
		next := g.Len()
		added := b.expand(frontierStart, opts)
		frontierStart = next
		if !added {
			g.Complete = g.Len() < opts.maxNodes()
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
	tgd, trig := int32(-1), int32(-1)
	if tr != nil {
		tup := []uint32{uint32(tr.TGDIndex)}
		for _, v := range b.bodyVars[tr.TGDIndex] {
			tup = append(tup, uint32(g.itab.InternTerm(tr.H.ApplyTerm(v))))
		}
		tgd = int32(tr.TGDIndex)
		trig, _ = g.trig.Intern(tup)
	}
	id := g.addNode(tgd, trig, parents, g.itab.InternPred(atom.Pred), args, int32(depth))
	n := &Node{ID: id, Atom: atom, Trigger: tr, Parents: parents, Depth: depth}
	g.nodes = append(g.nodes, n)
	g.children = append(g.children, nil)
	for _, p := range parents {
		g.children[p] = append(g.children[p], id)
	}
	b.byPred[atom.Pred] = append(b.byPred[atom.Pred], n)
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
				b.seenBuf = append(b.seenBuf, uint32(g.itab.InternTerm(h.ApplyTerm(v))))
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
				if bound, has := h[v]; has {
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
