package chase

// The ∀∃ derivation search subsystem: a best-first exploration of the space
// of restricted chase derivations, memoised by the 128-bit order-independent
// instance fingerprint (logic.Fingerprint) instead of rendered key strings.
//
// The search runs entirely on one shared interner:
//
//   - every explored chase state is an instance over the same term/pred IDs
//     (instance.NewWithInterner), so trigger tuples, nulls and fingerprint
//     caches agree across states;
//   - TGDs are slot-compiled once (compileSet) and trigger enumeration and
//     activity checks run the SlotSearch fast path, like the engine;
//   - trigger identity on paths is the interned tuple [tgd, body TermIDs...]
//     in a TupleTable — nodes store a 4-byte trigger ID and a parent ID,
//     never a copied []Trigger path;
//   - nulls are invented per (trigger ID, existential index) — the paper's
//     c^{σ,h}_x — and interned by name. A trigger ID is its TGD and body
//     TermIDs, so each c^{σ,h}_x gets exactly one name whichever path
//     meets it first, and fingerprints of states reached along different
//     paths collide exactly when the states merge;
//   - child states are deltas: generating a successor costs O(|result|)
//     membership probes and one fingerprint merge — no Clone, no rendering.
//     A node's instance is materialised only when the node is popped for
//     expansion, by moving one scratch instance along the search tree: it
//     is truncated back to the deepest common ancestor of the popped node
//     and the node it last held, and only the deltas below that ancestor
//     are replayed. Generated-but-never-expanded states (the majority,
//     under memoisation) never build an instance.
//
// The search allocates no object per successor, and expanding a state
// allocates none in steady state. Nodes live in a chunked arena
// (nodeArena) addressed by int32 IDs in generation order, with every delta
// in one flat []uint32 and every pending active-trigger index in one
// []int32 slab (indexSlab); the visited set is an
// open-addressing table of node IDs probed by the fingerprints' own low
// bits (searcher.find); the frontier is a bucket queue (frontier) that
// pops the smallest instance first, FIFO among equal sizes: fixpoints are
// found sooner and the memoised frontier stays tight.
//
// The single-state expansion step (intern the vocabulary, compute the
// state's active-trigger index — inherited from the parent and repaired
// with the delta, see triggerindex.go — compute a successor's fingerprint
// and delta, invent one null per trigger and existential variable) lives
// in the expander type, which the searcher below embeds.

import (
	"context"
	"fmt"
	"math"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// ExistsResult reports the outcome of the ∀∃-style search (the paper's
// future-work question 3: is there a *finite* restricted chase derivation
// of D w.r.t. T?).
type ExistsResult struct {
	// Found is true when some trigger order reaches a fixpoint.
	Found bool
	// Derivation is a witnessing trigger sequence when Found.
	Derivation []Trigger
	// StatesVisited counts distinct instances explored.
	StatesVisited int
	// Exhausted is true when the search space was fully explored (so
	// Found = false is a proof that *every* derivation is infinite,
	// CT^res_∀∃ failure); false when a budget stopped the search.
	Exhausted bool
	// Cancelled is true when the search's context was cancelled before
	// the sweep finished (Exhausted is then false and the result carries
	// no semantic claim — only statistics).
	Cancelled bool
	// Stats counts the search's work.
	Stats SearchStats
	// Replayed is true when the result came from the cross-run cache
	// instead of a search: Stats then describe the recorded search, and
	// this call expanded no states.
	Replayed bool
}

// The ∀∃ search's budgets when SearchOptions leaves them zero.
const (
	DefaultSearchStates = 10_000
	DefaultSearchAtoms  = 200
)

// SearchOptions configures the ∀∃ search. The zero value uses the defaults.
type SearchOptions struct {
	// MaxStates bounds the number of distinct instance states (0:
	// DefaultSearchStates). A budget above math.MaxInt32 is read as
	// math.MaxInt32: states are addressed by int32 IDs.
	MaxStates int
	// MaxAtoms bounds the per-instance atom count (0: DefaultSearchAtoms).
	MaxAtoms int
	// Cache, when non-nil, memoises whole search outcomes across runs as
	// ExistsOutcome entries keyed by (set fingerprint, instance fingerprint,
	// MaxAtoms) under the budget-monotonicity rule — see
	// ExistsOutcome. A hit replays the recorded run's verdict, witness and
	// statistics without exploring a single state; cancelled runs are never
	// stored.
	Cache *Cache

	// fullRescan disables the delta-maintained trigger index and rebuilds
	// every popped state's active-trigger set by full re-enumeration — the
	// pre-index behaviour. Deliberately unexported: it exists so in-package
	// benchmarks can measure the index against its baseline and so the
	// differential tests can pin the two paths bit-identical; it is not a
	// supported mode.
	fullRescan bool

	// order replaces the smallest-first frontier order (its zero value), so
	// the index and verdict tests can drive the search breadth- or
	// depth-first, through states smallest-first does not reach. The
	// bucket queue serves both from one bucket's front or back. Unexported;
	// test-only.
	order searchOrder

	// onExpand, when set, observes every expansion right after the state's
	// index is computed, receiving the searcher, the expanded node's ID,
	// the materialised instance and the index's triggers in enumeration
	// order — the differential tests' hook for pinning the index against
	// ActiveTriggers ground truth, the scratch instance against a rebuild
	// from the database and the arena's index ownership. Unexported;
	// test-only.
	onExpand func(s *searcher, id int32, inst *instance.Instance, active []Trigger)
}

// searchOrder is the frontier's exploration order.
type searchOrder uint8

const (
	smallestFirst searchOrder = iota // fewest atoms first, generation order among equals
	breadthFirst                     // generation order
	depthFirst                       // most recently generated first
)

// SearchStats counts the search's work. The JSON tags are the stable wire
// shape served by termcheckd's /v1/exists and /v1/stats responses; the
// `trigger-index:` CLI line reports the last three fields.
type SearchStats struct {
	// StatesExpanded counts popped states whose triggers were enumerated.
	StatesExpanded int `json:"states-expanded"`
	// MemoHits counts generated successors that merged into a visited state.
	MemoHits int `json:"memo-hits"`
	// PeakFrontier is the largest frontier size reached.
	PeakFrontier int `json:"peak-frontier"`
	// IndexRepairs counts expanded states whose active-trigger index was
	// inherited from the parent and repaired with the delta; IndexRebuilds
	// counts full re-enumerations (the root, and every state when the index
	// is disabled).
	IndexRepairs  int `json:"index-repairs"`
	IndexRebuilds int `json:"index-rebuilds"`
	// ActivityRechecks counts the activity checks of inherited triggers
	// that the repair path ran: an inherited trigger is checked again
	// when a predicate of its TGD's head occurs in the delta.
	ActivityRechecks int `json:"activity-rechecks"`
}

// searchNode is one chase state in the searcher's node arena: the delta
// against its parent plus the incremental fingerprint. A node's ID is its
// generation order (the root is 0); the trigger path is recovered by
// walking parent IDs. A node holds no pointer, so the GC does not scan the
// arena.
type searchNode struct {
	fp     logic.Fingerprint
	delta  int           // offset of the node's delta in searcher.deltas
	parent int32         // -1 at the root
	trig   logic.TupleID // trigger applied to parent; -1 at the root
	size   int32         // instance atom count
	kids   int32         // frontier children that may still repair from idx
	// idx is the node's active-trigger index in the expander's slab, held
	// from its expansion while kids > 0; noIndex otherwise.
	idx int32
}

// An arena chunk holds 1<<nodeChunkBits nodes. Chunks never move, so a
// *searchNode stays valid while later nodes are added.
const nodeChunkBits = 8

// nodeArena holds every node of one search, addressed by ID.
type nodeArena struct {
	chunks [][]searchNode
	n      int32
}

func (a *nodeArena) at(id int32) *searchNode {
	return &a.chunks[id>>nodeChunkBits][id&(1<<nodeChunkBits-1)]
}

// add stores n under the next ID and returns it.
func (a *nodeArena) add(n searchNode) int32 {
	id := a.n
	if int(id>>nodeChunkBits) == len(a.chunks) {
		a.chunks = append(a.chunks, make([]searchNode, 1<<nodeChunkBits))
	}
	*a.at(id) = n
	a.n++
	return id
}

// frontier is the search's pending states, a bucket queue of node IDs.
// Under smallestFirst, bucket k holds, in generation order, the states with
// k more atoms than the root, and pop takes the front of the lowest
// non-empty bucket: exactly the (size, generation) order. That bucket never
// moves down, because push is never given a state smaller than the last
// one popped: a successor is strictly larger than its parent (see
// materialise). The test-only orders keep every state in bucket 0, popped
// from its front (breadthFirst) or back (depthFirst).
type frontier struct {
	order   searchOrder
	base    int32 // the root's size
	buckets []bucket
	low     int // no bucket below low is non-empty
	n       int
}

// bucket is one FIFO (or, depth-first, LIFO) run of node IDs: ids[head:]
// are pending.
type bucket struct {
	ids  []int32
	head int
}

func (f *frontier) len() int { return f.n }

func (f *frontier) push(id, size int32) {
	b := 0
	if f.order == smallestFirst {
		b = int(size - f.base)
	}
	for b >= len(f.buckets) {
		f.buckets = append(f.buckets, bucket{})
	}
	f.buckets[b].ids = append(f.buckets[b].ids, id)
	f.n++
}

// pop removes and returns the next state; the frontier must not be empty.
func (f *frontier) pop() int32 {
	bk := &f.buckets[f.low]
	for bk.head == len(bk.ids) {
		f.low++
		bk = &f.buckets[f.low]
	}
	var id int32
	if f.order == depthFirst {
		id = bk.ids[len(bk.ids)-1]
		bk.ids = bk.ids[:len(bk.ids)-1]
	} else {
		id = bk.ids[bk.head]
		bk.head++
	}
	if bk.head == len(bk.ids) {
		bk.ids, bk.head = bk.ids[:0], 0
	}
	f.n--
	return id
}

// expander is the reusable single-state expansion step of the ∀∃ search: a
// private interner holding the startup vocabulary (compiled patterns first,
// then database atoms), the delta-maintained active-trigger index over a
// reused scratch instance (triggerindex.go), successor fingerprint/delta
// computation, and null invention per trigger. The searcher embeds one.
// Single writer, no internal locking — the interner is never shared (see
// the concurrency contract in docs/ARCHITECTURE.md).
type expander struct {
	set *tgds.Set

	itab *logic.Interner // private identity of every state this expander touches
	ct   []compiledTGD

	trig  *logic.TupleTable       // trigger identity: [tgd, body TermIDs...]
	nulls map[uint64]logic.TermID // (trigger ID, exist index) -> null
	namer *logic.FreshNamer

	rootDelta []uint32 // the database atoms, flattened [pid, args...]*
	rootFp    logic.Fingerprint
	rootSize  int

	// slab/deps/predMark/predEpoch/nRechecks serve the delta-maintained
	// trigger index (triggerindex.go); nRechecks counts the activity
	// re-checks of inherited triggers and is drained into SearchStats by the
	// owner.
	slab      indexSlab
	deps      *deltaDeps
	predMark  []uint32
	predEpoch uint32
	nRechecks int

	// The index scratch: buildIndex and repairIndex leave the state's index
	// here, per-TGD counts and trigger IDs, for the owner to put into the
	// slab; kept and fresh hold repair's filtered and discovered runs.
	counts []int32
	ids    []logic.TupleID
	kept   []logic.TupleID
	fresh  []logic.TupleID

	matcher
	ds discSorter

	// scratch is the reusable materialisation arena: every popped state is
	// materialised into this one instance (see searcher.materialise), so
	// materialisation allocates no maps or tables in steady state. Callers
	// must not retain the instance across expansions.
	scratch *instance.Instance

	// scratch; see the engine's twins
	discBuf  []uint32
	sortBuf  []int32
	argraw   []uint32
	deltaBuf []uint32
}

// newExpander builds an expander for the database and set, interning the
// startup vocabulary in the canonical order: compiled patterns, then the
// database atoms.
func newExpander(db *instance.Database, set *tgds.Set) *expander {
	e := &expander{
		set:   set,
		itab:  logic.NewInterner(),
		trig:  logic.NewTupleTable(64),
		nulls: make(map[uint64]logic.TermID),
		namer: logic.NewFreshNamer("n"),
	}
	e.ct = compileSet(set, e.itab)
	e.slab = indexSlab{words: make([]int32, 1), nTGD: len(e.ct)}
	e.deps = newDeltaDeps(e.ct)
	e.ds = discSorter{itab: e.itab, disc: &e.discBuf, idx: &e.sortBuf}
	for _, a := range db.Atoms() {
		pid := e.itab.InternPred(a.Pred)
		off := len(e.rootDelta)
		e.rootDelta = append(e.rootDelta, uint32(pid))
		for _, t := range a.Args {
			e.rootDelta = append(e.rootDelta, uint32(e.itab.InternTerm(t)))
		}
		// Databases are duplicate-free sets, so each atom merges once.
		e.rootFp = e.rootFp.Merge(e.itab.HashAtomIDs(pid, e.rootDelta[off+1:]))
	}
	e.rootSize = db.Len()
	return e
}

// addDeltaTo inserts a flattened [pid, args...]* delta of local IDs.
func (e *expander) addDeltaTo(inst *instance.Instance, d []uint32) {
	for j := 0; j < len(d); {
		pid := logic.PredID(d[j])
		ar := e.itab.Pred(pid).Arity
		e.argbuf = e.argbuf[:0]
		for k := 0; k < ar; k++ {
			e.argbuf = append(e.argbuf, logic.TermID(d[j+1+k]))
		}
		inst.AddTuple(pid, e.argbuf)
		j += 1 + ar
	}
}

// childState computes the successor of the state (inst, fp) under the
// active trigger trigID of TGD tgd with body bindings bt: the result atoms
// not already present merge into the returned fingerprint, the flattened new
// atoms are left in e.deltaBuf ([pid, args...]*), and added counts them.
// Nulls are invented (or reused) per trigger, so the returned fingerprint
// is the same whichever path reached the state.
func (e *expander) childState(inst *instance.Instance, fp logic.Fingerprint, trigID logic.TupleID, tgd int, bt []uint32) (logic.Fingerprint, int) {
	ct := &e.ct[tgd]
	e.deltaBuf = e.deltaBuf[:0]
	added := 0
	for _, ca := range ct.head.Atoms {
		e.argbuf = e.argbuf[:0]
		e.argraw = e.argraw[:0]
		for _, a := range ca.Args {
			var id logic.TermID
			switch {
			case a.Slot < 0: // rigid pattern term (constant-free TGDs never hit this)
				id = a.ID
			case int(a.Slot) < ct.nBody:
				id = logic.TermID(bt[a.Slot])
			default:
				id = e.nullFor(trigID, int(a.Slot)-ct.nBody)
			}
			e.argbuf = append(e.argbuf, id)
			e.argraw = append(e.argraw, uint32(id))
		}
		if inst.HasTuple(ca.Pred, e.argbuf) || e.deltaHas(ca.Pred, e.argraw) {
			continue
		}
		e.deltaBuf = append(e.deltaBuf, uint32(ca.Pred))
		e.deltaBuf = append(e.deltaBuf, e.argraw...)
		fp = fp.Merge(e.itab.HashAtomIDs(ca.Pred, e.argraw))
		added++
	}
	return fp, added
}

// deltaHas reports whether the atom (pid, raw...) is already in deltaBuf —
// a multi-head result can instantiate two head atoms identically.
func (e *expander) deltaHas(pid logic.PredID, raw []uint32) bool {
	d := e.deltaBuf
	for i := 0; i < len(d); {
		p := logic.PredID(d[i])
		ar := e.itab.Pred(p).Arity
		if p == pid {
			same := true
			for k := 0; k < ar; k++ {
				if d[i+1+k] != raw[k] {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
		i += 1 + ar
	}
	return false
}

// nullFor returns the interned null for the trigger's k-th existential
// variable — the paper's c^{σ,h}_x — inventing it under the next counter
// name on first use. The (trigger, k) cache gives each null one name and
// one ID for the whole search, and a trigger's ID is a function of its
// content, so a state's fingerprint does not depend on the path that
// reached it.
func (e *expander) nullFor(trigID logic.TupleID, k int) logic.TermID {
	key := uint64(uint32(trigID))<<32 | uint64(uint32(k))
	if id, ok := e.nulls[key]; ok {
		return id
	}
	id := e.itab.InternTerm(e.namer.NextNull())
	e.nulls[key] = id
	return id
}

// triggersOf materialises the public Trigger forms of index h, in
// enumeration order (TGD ascending, canonical bindings within). Only the
// onExpand test hook calls this; the search itself never leaves interned
// identity.
func (s *searcher) triggersOf(h int32) []Trigger {
	counts, ids := s.slab.region(h)
	out := make([]Trigger, 0, len(ids))
	for tgd, n := range counts {
		ct := &s.ct[tgd]
		for _, id := range ids[:n] {
			tup := s.trig.Tuple(id)
			h := logic.NewSubstitution()
			for i, v := range ct.bodyVars {
				h[v] = s.itab.Term(logic.TermID(tup[i+1]))
			}
			out = append(out, Trigger{TGDIndex: tgd, TGD: s.set.TGDs[tgd], H: h})
		}
		ids = ids[n:]
	}
	return out
}

// searcher is the search's engine-like state. Single writer, single run.
type searcher struct {
	*expander
	opts SearchOptions
	done <-chan struct{} // run context's cancellation channel; nil = background

	nodes  nodeArena
	deltas []uint32 // every node's delta, flattened, in ID order: the database first
	memo   []int32  // the visited set: see find
	front  frontier

	chain []int32
	held  int32 // the node the scratch instance holds; -1: empty

	res *ExistsResult
}

// SearchTerminatingDerivation searches the space of restricted chase
// derivations of D w.r.t. T for one that reaches a fixpoint — the ∀∃ side
// of the paper's open question (3). The restricted chase is
// order-sensitive: a program may admit both infinite and finite
// derivations (the engine's FIFO order can diverge where a smarter order
// terminates). The search explores instances smallest first, memoising
// visited states by their order-independent fingerprint, and stops at
// MaxStates distinct instances or MaxAtoms per instance.
//
// This is a semi-decision helper for the paper's open question (3) —
// CT^res_∀∃ — not one of its theorems; it is exact on the explored space.
// It is TGD-only and returns an error on a set with EGDs.
func SearchTerminatingDerivation(db *instance.Database, set *tgds.Set, opts SearchOptions) (*ExistsResult, error) {
	return SearchTerminatingDerivationContext(context.Background(), db, set, opts)
}

// SearchTerminatingDerivationContext is SearchTerminatingDerivation under a
// context: the searcher polls ctx.Done() at every pop. A cancelled search
// returns Cancelled = true with Exhausted = false; uncancelled runs are
// byte-identical to the plain entry point.
func SearchTerminatingDerivationContext(ctx context.Context, db *instance.Database, set *tgds.Set, opts SearchOptions) (*ExistsResult, error) {
	if set.HasEGDs() {
		return nil, fmt.Errorf("chase: the ∀∃ derivation search is TGD-only: its state space memoises instances by fingerprint under trigger application, and equality steps rewrite states in place")
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultSearchStates
	}
	opts.MaxStates = min(opts.MaxStates, math.MaxInt32)
	if opts.MaxAtoms <= 0 {
		opts.MaxAtoms = DefaultSearchAtoms
	}
	var setFP, instFP logic.Fingerprint
	if opts.Cache != nil {
		setFP = set.Fingerprint()
		instFP = logic.FingerprintAtoms(db.Atoms())
		if o, ok := opts.Cache.LookupExistsOutcome(setFP, instFP, opts.MaxAtoms, opts.MaxStates); ok {
			if res, ok := replayExistsOutcome(set, o); ok {
				return res, nil
			}
		}
	}
	e := newExpander(db, set)
	s := &searcher{
		expander: e,
		opts:     opts,
		done:     ctx.Done(),
		deltas:   e.rootDelta,
		memo:     make([]int32, 64),
		front:    frontier{order: opts.order, base: int32(e.rootSize)},
		held:     -1,
		res:      &ExistsResult{Exhausted: true},
	}
	root := s.nodes.add(searchNode{fp: e.rootFp, parent: -1, trig: -1, size: int32(e.rootSize)})
	slot, _ := s.find(e.rootFp)
	s.remember(slot, root)
	s.front.push(root, int32(e.rootSize))
	s.loop()
	res := s.res
	if opts.Cache != nil && !res.Cancelled {
		opts.Cache.StoreExistsOutcome(setFP, instFP, opts.MaxAtoms, recordExistsOutcome(res, opts.MaxStates))
	}
	return res, nil
}

// recordExistsOutcome converts a finished, uncancelled search result into
// the portable cache entry: the derivation's triggers become (TGD index,
// sorted variable/value pairs) with terms by value, so the entry holds no
// interner-bound identity.
func recordExistsOutcome(res *ExistsResult, maxStates int) *ExistsOutcome {
	o := &ExistsOutcome{
		Found:         res.Found,
		Exhausted:     res.Exhausted,
		Budget:        maxStates,
		StatesVisited: res.StatesVisited,
		Stats:         res.Stats,
	}
	for _, tr := range res.Derivation {
		vars := tr.TGD.BodyVars().Sorted()
		st := ExistsStep{TGD: int32(tr.TGDIndex), Vars: vars, Vals: make([]logic.Term, len(vars))}
		for i, v := range vars {
			st.Vals[i] = tr.H[v]
		}
		o.Derivation = append(o.Derivation, st)
	}
	return o
}

// replayExistsOutcome rebuilds the recorded run's ExistsResult against the
// caller's set, marked Replayed. Trigger rendering sorts bindings, so a
// replayed witness prints byte-identically to the recorded one. It reports
// false when a step's TGD index does not fit the set — an entry the set
// could not have produced — and the caller searches afresh.
func replayExistsOutcome(set *tgds.Set, o *ExistsOutcome) (*ExistsResult, bool) {
	res := &ExistsResult{
		Found:         o.Found,
		Exhausted:     o.Exhausted,
		StatesVisited: o.StatesVisited,
		Stats:         o.Stats,
		Replayed:      true,
	}
	for _, st := range o.Derivation {
		if int(st.TGD) >= len(set.TGDs) {
			return nil, false
		}
		h := logic.NewSubstitution()
		for i, v := range st.Vars {
			h[v] = st.Vals[i]
		}
		res.Derivation = append(res.Derivation, Trigger{TGDIndex: int(st.TGD), TGD: set.TGDs[st.TGD], H: h})
	}
	return res, true
}

func (s *searcher) loop() {
	for s.front.len() > 0 {
		if s.done != nil {
			select {
			case <-s.done:
				s.res.Exhausted = false
				s.res.Cancelled = true
				s.finish()
				return
			default:
			}
		}
		if s.front.len() > s.res.Stats.PeakFrontier {
			s.res.Stats.PeakFrontier = s.front.len()
		}
		id := s.front.pop()
		cur := s.nodes.at(id)
		inst := s.materialise(id)
		// Inherit-and-repair the parent's active-trigger index; the parent
		// always has one (a child is generated only while its parent is being
		// expanded), so the rebuild path is the root's and fullRescan's.
		par := noIndex
		var parent *searchNode
		deltaLo := int32(0)
		if cur.parent >= 0 {
			parent = s.nodes.at(cur.parent)
			deltaLo = parent.size
			if !s.opts.fullRescan {
				par = parent.idx
			}
		}
		repaired := s.stateIndex(par, inst, deltaLo)
		// This expansion consumed one of the parent's pending repairs; a
		// drained (or childless) index is dead weight and goes back to the
		// slab, so the slab does not hold every expanded state's trigger
		// list for the whole run. The parent's is released before this
		// state's is stored, so this state can take its region.
		if parent != nil && parent.kids > 0 {
			if parent.kids--; parent.kids == 0 {
				s.slab.release(parent.idx)
				parent.idx = noIndex
			}
		}
		cur.idx = s.slab.put(s.counts, s.ids)
		if repaired {
			s.res.Stats.IndexRepairs++
		} else {
			s.res.Stats.IndexRebuilds++
		}
		if s.opts.onExpand != nil {
			s.opts.onExpand(s, id, inst, s.triggersOf(cur.idx))
		}
		s.res.Stats.StatesExpanded++
		if _, active := s.slab.region(cur.idx); len(active) == 0 {
			s.res.Found = true
			s.res.Derivation = s.path(id)
			s.finish()
			return
		}
		if int(cur.size) < s.opts.MaxAtoms {
			s.generate(id, inst)
		} else {
			s.res.Exhausted = false
		}
		if cur.kids == 0 {
			s.slab.release(cur.idx)
			cur.idx = noIndex
		}
	}
	s.finish()
}

func (s *searcher) finish() {
	s.res.StatesVisited = int(s.nodes.n)
	s.res.Stats.ActivityRechecks = s.nRechecks
}

// generate creates the successor of node id under every active trigger of
// its index, in canonical order (TGD ascending, bindings canonical
// within): an arena node with its delta appended to the flat store and an
// incrementally merged fingerprint. Memoised and over-budget successors
// are dropped without storing anything. It reads the index's region in
// place: nothing here puts into the slab.
func (s *searcher) generate(id int32, inst *instance.Instance) {
	cur := s.nodes.at(id)
	counts, ids := s.slab.region(cur.idx)
	for tgd, n := range counts {
		for _, trigID := range ids[:n] {
			trigTup := s.trig.Tuple(trigID)

			childFp, added := s.childState(inst, cur.fp, trigID, tgd, trigTup[1:])
			slot, dup := s.find(childFp)
			if dup {
				s.res.Stats.MemoHits++
				continue
			}
			if int(s.nodes.n) >= s.opts.MaxStates {
				s.res.Exhausted = false
				return
			}
			off := len(s.deltas)
			if need := off + len(s.deltaBuf); need > cap(s.deltas) {
				s.deltas = append(make([]uint32, 0, 2*need), s.deltas...)
			}
			s.deltas = append(s.deltas, s.deltaBuf...)
			size := cur.size + int32(added)
			child := s.nodes.add(searchNode{fp: childFp, delta: off, parent: id, trig: trigID, size: size})
			s.remember(slot, child)
			cur.kids++
			s.front.push(child, size)
		}
		ids = ids[n:]
	}
}

// find looks fp up in the visited set, an open-addressing table of node
// IDs keyed by the nodes' fingerprints (a slot holds 1 + ID; 0 is empty).
// It probes linearly from the fingerprint's own low bits: a fingerprint is
// a sum of mixed atom hashes, so they are uniform and need no rehash. It
// returns the slot of the node that has fp, or of the empty slot where
// remember would put one, and whether a node has fp.
func (s *searcher) find(fp logic.Fingerprint) (int, bool) {
	mask := len(s.memo) - 1
	for i := int(fp.Lo) & mask; ; i = (i + 1) & mask {
		switch v := s.memo[i]; {
		case v == 0:
			return i, false
		case s.nodes.at(v-1).fp == fp:
			return i, true
		}
	}
}

// remember enters node id into the slot find returned for its fingerprint,
// doubling the table once it is more than half full.
func (s *searcher) remember(slot int, id int32) {
	s.memo[slot] = id + 1
	if 2*int(s.nodes.n) <= len(s.memo) {
		return
	}
	old := s.memo
	s.memo = make([]int32, 2*len(old))
	for _, v := range old {
		if v != 0 {
			slot, _ := s.find(s.nodes.at(v - 1).fp)
			s.memo[slot] = v
		}
	}
}

// delta returns node id's flattened new atoms: the flat store from its
// offset to the next node's. A successor's delta is stored only with its
// node, so the last node's delta ends the store.
func (s *searcher) delta(id int32) []uint32 {
	end := len(s.deltas)
	if id+1 < s.nodes.n {
		end = s.nodes.at(id + 1).delta
	}
	return s.deltas[s.nodes.at(id).delta:end]
}

// materialise moves the expander's scratch instance to node id's state and
// returns it: the database plus the node's ancestor deltas, root first, on
// the shared interner. The scratch is truncated back to the deepest common
// ancestor of the node and the node it held, and only the deltas below
// that ancestor are replayed, so it ends up holding the same atoms in the
// same insertion order as a rebuild from the database would.
//
// The walk to the common ancestor compares sizes, which grow strictly along
// every path: a successor that adds no atom has its parent's fingerprint,
// which the memo already holds, so generate never creates it. Hence a node
// larger than the other is never an ancestor of it, and two distinct nodes
// of equal size are not ancestors of each other.
//
// Called once per expanded node; the returned instance is valid until the
// next materialise.
func (s *searcher) materialise(id int32) *instance.Instance {
	if s.scratch == nil {
		s.scratch = instance.NewWithInternerHint(s.itab, int(s.nodes.at(id).size))
	}
	s.chain = s.chain[:0]
	a, b := id, s.held
	for a != b {
		switch {
		case b < 0 || (a >= 0 && s.nodes.at(a).size > s.nodes.at(b).size):
			s.chain = append(s.chain, a)
			a = s.nodes.at(a).parent
		case a < 0 || s.nodes.at(b).size > s.nodes.at(a).size:
			b = s.nodes.at(b).parent
		default:
			s.chain = append(s.chain, a)
			a, b = s.nodes.at(a).parent, s.nodes.at(b).parent
		}
	}
	keep := 0
	if a >= 0 {
		keep = int(s.nodes.at(a).size)
	}
	s.scratch.Truncate(keep)
	for i := len(s.chain) - 1; i >= 0; i-- {
		s.addDeltaTo(s.scratch, s.delta(s.chain[i]))
	}
	s.held = id
	return s.scratch
}

// path rebuilds the witnessing trigger sequence by walking parent IDs,
// materialising the public Trigger form from each interned tuple.
//
// The search mints null names in exploration order, but a caller replaying
// the witness through Derivation.Apply mints them in *path* order with its
// own factory — so the triggers' bindings are renamed here by simulating
// that replay: a fresh structural factory is driven exactly as Apply's
// Result will drive it, and each search null maps to the name the replay
// will use. Every null bound by a path trigger was invented by an earlier
// path step (a node's instance is the database plus its own path's
// results), so the rename map is total on the bindings.
func (s *searcher) path(id int32) []Trigger {
	var ids []logic.TupleID
	for m := s.nodes.at(id); m.parent >= 0; m = s.nodes.at(m.parent) {
		ids = append(ids, m.trig)
	}
	out := make([]Trigger, len(ids))
	replay := NewNullFactory()
	ren := make(map[logic.TermID]logic.Term)
	for i := range ids {
		id := ids[len(ids)-1-i]
		tup := s.trig.Tuple(id)
		tgd := int(tup[0])
		ct := &s.ct[tgd]
		h := logic.NewSubstitution()
		for j, v := range ct.bodyVars {
			tid := logic.TermID(tup[j+1])
			t := s.itab.Term(tid)
			if t.IsNull() {
				if r, ok := ren[tid]; ok {
					t = r
				}
			}
			h[v] = t
		}
		tr := Trigger{TGDIndex: tgd, TGD: s.set.TGDs[tgd], H: h}
		// Mirror the replay factory's inventions for this step: Result
		// mints nulls for the existential variables in sorted order, which
		// is exactly ct.existVars order.
		for k, x := range ct.existVars {
			ren[s.nullFor(id, k)] = replay.NullFor(tr, x)
		}
		out[i] = tr
	}
	return out
}
