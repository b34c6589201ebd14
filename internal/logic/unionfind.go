package logic

// UnionFind is a union-find (disjoint-set) structure over TermIDs, layered
// on an Interner's dense ID space: the chase engine's equality-step
// machinery records EGD-forced merges here and resolves every term to its
// class representative before comparing or rewriting. The zero value is
// ready to use; the structure grows on demand as IDs are touched.
//
// Representative choice is the caller's: Link records an explicit
// (child → parent) edge, so the engine can enforce the chase's merge order
// (a constant absorbs a null, an older null absorbs a younger one) rather
// than an arbitrary rank heuristic. Find applies path halving, so chains of
// merges accumulated between instance rewrites resolve in near-constant
// amortised time.
type UnionFind struct {
	parent []TermID
}

// grow extends the parent table so id is a valid index, mapping every new
// ID to itself.
func (u *UnionFind) grow(id TermID) {
	for len(u.parent) <= int(id) {
		u.parent = append(u.parent, TermID(len(u.parent)))
	}
}

// Reset empties the structure and keeps its capacity: every ID is its
// own representative again.
func (u *UnionFind) Reset() {
	u.parent = u.parent[:0]
}

// Find returns the representative of id's equality class, compressing the
// path as it walks. An ID never touched by Link is its own representative.
func (u *UnionFind) Find(id TermID) TermID {
	if int(id) >= len(u.parent) {
		return id
	}
	for u.parent[id] != id {
		u.parent[id] = u.parent[u.parent[id]] // path halving
		id = u.parent[id]
	}
	return id
}

// Link merges child's class into parent's: after the call,
// Find(child) == Find(parent) == Find of parent's old representative.
// Both arguments are resolved through Find first, so callers may pass
// unresolved IDs; linking two IDs already in one class is a no-op. Link
// never chooses the representative — pass the term that must survive as
// parent.
func (u *UnionFind) Link(child, parent TermID) {
	c, p := u.Find(child), u.Find(parent)
	if c == p {
		return
	}
	u.grow(c)
	u.grow(p)
	u.parent[c] = p
}
