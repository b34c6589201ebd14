package chase

// The delta-maintained trigger index: per-state active-trigger sets that a
// child search state *inherits* from its parent and repairs against the
// child's delta, instead of re-enumerating every TGD body from scratch at
// every expansion (the profile's former hot spot, expander.collectActive).
//
// Soundness rests on two monotonicity facts about the restricted chase
// (Definition 3.1), both consequences of instances only growing along a
// derivation:
//
//   - body matches are monotone: every body homomorphism into the child
//     either lies entirely in the parent (so its trigger was already a
//     candidate there) or uses at least one delta atom — which is exactly
//     what logic.SlotSearch.ForEachDelta enumerates, each new homomorphism
//     once;
//   - activity is antitone: a trigger inactive at the parent stays inactive
//     forever, and a trigger active at the parent can only be deactivated
//     by a head homomorphism that uses a delta atom. So inherited
//     candidates need re-checking only when the delta contains an atom
//     whose predicate occurs in the TGD's head (the head-predicate
//     dependency sets, computed once per TGD set), and the re-check is the
//     same activity check (matcher.isActive) that discovery and the
//     engine's pops run.
//
// Hence: active(child) = keep(active(parent)) ∪ activeNew(delta), with
// keep filtering by the activity check and activeNew discovered by
// ForEachDelta over the body. Both sides are produced in the canonical
// trigger order (TGD index ascending, then componentwise Term.Compare of
// the body bindings — the order collectActive/AllTriggers produce), and the
// two are disjoint (a new candidate's body uses a delta atom, so it cannot
// have been a parent candidate), so a linear merge reproduces the full
// re-enumeration order *exactly*. That identity is what keeps verdicts,
// StatesVisited and witness replay bit-identical to the pre-index search —
// the property triggerindex_test.go pins differentially and by property.

import (
	"math/bits"
	"sort"

	"airct/internal/instance"
	"airct/internal/logic"
)

// indexSlab holds the active-trigger indexes of expanded search states in
// one []int32 that the expander owns. An index is a region of the slab,
// addressed by its offset (a handle; noIndex is none): [class, total,
// per-TGD counts..., trigger IDs...], the trigger IDs ([tgd, body
// TermIDs...] tuples in the expander's trig table) of each TGD's active
// triggers in canonical order, TGD after TGD. A region spans 1<<class words;
// every size class keeps a free list, threaded through the released
// regions' total words, and put takes a region from it before growing the
// slab, so the slab follows the live indexes rather than every index ever
// built. The slab holds no pointers, and neither do the search nodes that
// keep handles into it.
//
// put may grow the slab, so a region's slices are valid only until the
// next put. TupleIDs are expander-local: an index is only meaningful to
// the expander whose trig table interned it.
type indexSlab struct {
	words []int32 // words[0] is never a region: handle 0 is noIndex
	free  []int32 // per size class, the first free region; noIndex: none
	nTGD  int
}

// noIndex is the handle of no index.
const noIndex int32 = 0

// put stores an index, given its per-TGD counts and its trigger IDs, in a
// free region of its size class, or at the end of the slab when the class
// has none, and returns the region's handle.
func (s *indexSlab) put(counts []int32, ids []logic.TupleID) int32 {
	n := 2 + len(counts) + len(ids)
	class := bits.Len(uint(n - 1))
	for class >= len(s.free) {
		s.free = append(s.free, noIndex)
	}
	h := s.free[class]
	if h != noIndex {
		s.free[class] = s.words[h+1]
	} else {
		h = int32(len(s.words))
		s.words = append(s.words, make([]int32, 1<<class)...)
	}
	r := s.words[h : int(h)+n]
	r[0], r[1] = int32(class), int32(len(ids))
	copy(r[2:], counts)
	copy(r[2+len(counts):], ids)
	return h
}

// release returns region h to its size class's free list.
func (s *indexSlab) release(h int32) {
	c := s.words[h]
	s.words[h+1] = s.free[c]
	s.free[c] = h
}

// region returns index h's per-TGD counts and its trigger IDs, valid until
// the next put.
func (s *indexSlab) region(h int32) (counts []int32, ids []logic.TupleID) {
	lo := int(h) + 2 + s.nTGD
	return s.words[int(h)+2 : lo], s.words[lo : lo+int(s.words[h+1])]
}

// deltaDeps are the per-TGD predicate dependency sets, computed once per
// compiled TGD set: repair consults them to decide, per delta, which TGDs
// need candidate discovery (a body predicate occurs in the delta) and which
// need activity re-checks (a head predicate occurs in the delta).
type deltaDeps struct {
	headPreds [][]logic.PredID // distinct head predicates per TGD
	bodyPreds [][]logic.PredID // distinct body predicates per TGD
}

func newDeltaDeps(ct []compiledTGD) *deltaDeps {
	d := &deltaDeps{
		headPreds: make([][]logic.PredID, len(ct)),
		bodyPreds: make([][]logic.PredID, len(ct)),
	}
	distinct := func(atoms []logic.CAtom) []logic.PredID {
		var out []logic.PredID
		for _, a := range atoms {
			dup := false
			for _, p := range out {
				if p == a.Pred {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, a.Pred)
			}
		}
		return out
	}
	for i := range ct {
		d.headPreds[i] = distinct(ct[i].head.Atoms)
		d.bodyPreds[i] = distinct(ct[i].body.Atoms)
	}
	return d
}

// markDelta stamps the predicates of the delta atoms [deltaLo, inst.Len())
// into e.predMark under a fresh epoch; anyMarked then answers "does this
// dependency set intersect the delta?" in O(|set|) with no clearing.
func (e *expander) markDelta(inst *instance.Instance, deltaLo int32) {
	e.predEpoch++
	n := int32(inst.Len())
	for d := deltaLo; d < n; d++ {
		pid := inst.AtomPredID(d)
		for int(pid) >= len(e.predMark) {
			e.predMark = append(e.predMark, 0)
		}
		e.predMark[pid] = e.predEpoch
	}
}

func (e *expander) anyMarked(preds []logic.PredID) bool {
	for _, p := range preds {
		if int(p) < len(e.predMark) && e.predMark[p] == e.predEpoch {
			return true
		}
	}
	return false
}

// discoverActive runs the shared collect-sort-filter-intern step of index
// construction for TGD i: enumerate body homomorphisms (every one with
// deltaLo < 0, else those using an atom at or after deltaLo), order the
// candidate tuples canonically, keep the active ones, intern them and
// append their IDs to dst. Both buildIndex and repairIndex go through this
// one function, so the activity filtering can never diverge between the
// rebuild path and the repair path it is differentially tested against.
func (e *expander) discoverActive(dst []logic.TupleID, i int, inst *instance.Instance, deltaLo int32) []logic.TupleID {
	ct := &e.ct[i]
	e.discBuf = e.discBuf[:0]
	e.sortBuf = e.sortBuf[:0]
	e.ss.Reset(ct.body)
	collect := func(bind []logic.TermID) bool {
		e.collectTrigTuple(i, ct, bind)
		return true
	}
	if deltaLo < 0 {
		e.ss.ForEach(ct.body, inst, collect)
	} else {
		e.ss.ForEachDelta(ct.body, inst, deltaLo, collect)
	}
	e.sortDiscovered(ct)
	for _, off := range e.sortBuf {
		tup := e.discBuf[off : off+int32(ct.nBody)+1]
		if e.isActive(ct, tup[1:], inst) {
			id, _ := e.trig.Intern(tup)
			dst = append(dst, id)
		}
	}
	return dst
}

// buildIndex enumerates the active triggers of inst from scratch into the
// expander's index scratch (e.counts, e.ids) — the full re-enumeration the
// repair path exists to avoid. It remains the root state's path and the
// reference the differential tests compare repairs against.
func (e *expander) buildIndex(inst *instance.Instance) {
	e.counts, e.ids = e.counts[:0], e.ids[:0]
	for i := range e.ct {
		n := len(e.ids)
		e.ids = e.discoverActive(e.ids, i, inst, -1)
		e.counts = append(e.counts, int32(len(e.ids)-n))
	}
}

// repairIndex derives the child state's index from its parent's index
// par into the expander's index scratch: per TGD, inherited candidates
// are kept (re-checked for activity only when a head predicate occurs in
// the delta) and new candidates are discovered by ForEachDelta over the
// body (only when a body predicate occurs in the delta), then the two
// canonical-order runs merge. deltaLo is the parent's atom count: the
// delta atoms are exactly the insertion-index range [deltaLo, inst.Len())
// of the parent-first materialised instance. The parent's region is read
// in place: nothing here puts into the slab.
func (e *expander) repairIndex(par int32, inst *instance.Instance, deltaLo int32) {
	e.markDelta(inst, deltaLo)
	e.counts, e.ids = e.counts[:0], e.ids[:0]
	counts, inherited := e.slab.region(par)
	for i, n := range counts {
		ct := &e.ct[i]
		kept := inherited[:n]
		inherited = inherited[n:]
		if e.anyMarked(e.deps.headPreds[i]) && len(kept) > 0 {
			e.kept = e.kept[:0]
			for _, id := range kept {
				e.nRechecks++
				if e.isActive(ct, e.trig.Tuple(id)[1:], inst) {
					e.kept = append(e.kept, id)
				}
			}
			kept = e.kept
		}
		start := len(e.ids)
		if e.anyMarked(e.deps.bodyPreds[i]) {
			e.fresh = e.discoverActive(e.fresh[:0], i, inst, deltaLo)
			e.ids = e.mergeCanonical(ct, e.ids, kept, e.fresh)
		} else {
			e.ids = append(e.ids, kept...)
		}
		e.counts = append(e.counts, int32(len(e.ids)-start))
	}
}

// collectTrigTuple appends the trigger tuple [tgd, body TermIDs...] for the
// binding to discBuf/sortBuf — the shared collection step of build, repair
// and the engine's discovery.
func (e *expander) collectTrigTuple(tgd int, ct *compiledTGD, bind []logic.TermID) {
	e.sortBuf = append(e.sortBuf, int32(len(e.discBuf)))
	e.discBuf = append(e.discBuf, uint32(tgd))
	for k := 0; k < ct.nBody; k++ {
		e.discBuf = append(e.discBuf, uint32(bind[k]))
	}
}

// sortDiscovered orders the collected trigger tuples canonically.
func (e *expander) sortDiscovered(ct *compiledTGD) {
	if len(e.sortBuf) > 1 {
		e.ds.stride = int32(ct.nBody) + 1
		sort.Sort(&e.ds)
	}
}

// mergeCanonical appends to dst the merge of two canonical-order, disjoint
// trigger-ID runs of one TGD, in canonical order. Disjointness holds by
// construction: a fresh candidate's body homomorphism uses a delta atom, so
// it cannot equal an inherited (parent-instance) candidate.
func (e *expander) mergeCanonical(ct *compiledTGD, dst, a, b []logic.TupleID) []logic.TupleID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if e.compareTrig(ct, a[i], b[j]) <= 0 {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// compareTrig orders two interned triggers of the same TGD canonically:
// componentwise Term.Compare of the body bindings, matching discSorter.
func (e *expander) compareTrig(ct *compiledTGD, a, b logic.TupleID) int {
	ta, tb := e.trig.Tuple(a), e.trig.Tuple(b)
	for k := 1; k <= ct.nBody; k++ {
		if c := e.itab.CompareTermIDs(logic.TermID(ta[k]), logic.TermID(tb[k])); c != 0 {
			return c
		}
	}
	return 0
}

// stateIndex computes the index of a popped state into the expander's
// index scratch: inherited and repaired from the parent's index par when
// one is supplied (the steady-state path), rebuilt from scratch otherwise
// (the root or the fullRescan baseline). It reports whether the repair
// path ran.
func (e *expander) stateIndex(par int32, inst *instance.Instance, deltaLo int32) bool {
	if par != noIndex {
		e.repairIndex(par, inst, deltaLo)
		return true
	}
	e.buildIndex(inst)
	return false
}
