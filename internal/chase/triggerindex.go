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
	"sort"

	"airct/internal/instance"
	"airct/internal/logic"
)

// trigIndex is the active-trigger set of one expanded search state: per TGD,
// the interned trigger TupleIDs ([tgd, body TermIDs...] in the owning
// expander's trig table) of the active triggers, in canonical order. A child
// index shares the per-TGD slices of its parent wholesale whenever the delta
// cannot have touched that TGD (copy-on-write inheritance); slices are never
// mutated after construction. TupleIDs are expander-local: an index is only
// meaningful to the expander whose trig table interned it.
type trigIndex struct {
	perTGD [][]logic.TupleID
	total  int
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
// construction for one TGD: enumerate body homomorphisms (the enumerate
// closure drives ForEach or ForEachDelta over e.ss, which arrives Reset for
// the body pattern), order the candidate tuples canonically, keep the
// active ones and intern them. Both buildIndex and repairIndex go through
// this one function, so the activity filtering can never diverge between
// the rebuild path and the repair path it is differentially tested against.
func (e *expander) discoverActive(i int, ct *compiledTGD, inst *instance.Instance, enumerate func(yield func([]logic.TermID) bool)) []logic.TupleID {
	e.discBuf = e.discBuf[:0]
	e.sortBuf = e.sortBuf[:0]
	e.ss.Reset(ct.body)
	enumerate(func(bind []logic.TermID) bool {
		e.collectTrigTuple(i, ct, bind)
		return true
	})
	e.sortDiscovered(ct)
	var ids []logic.TupleID
	for _, off := range e.sortBuf {
		tup := e.discBuf[off : off+int32(ct.nBody)+1]
		if e.isActive(ct, tup[1:], inst) {
			id, _ := e.trig.Intern(tup)
			ids = append(ids, id)
		}
	}
	return ids
}

// buildIndex enumerates the active triggers of inst from scratch — the full
// re-enumeration the repair path exists to avoid. It remains the root
// state's path and the reference the differential tests compare repairs
// against.
func (e *expander) buildIndex(inst *instance.Instance) *trigIndex {
	idx := &trigIndex{perTGD: make([][]logic.TupleID, len(e.ct))}
	for i := range e.ct {
		ct := &e.ct[i]
		ids := e.discoverActive(i, ct, inst, func(yield func([]logic.TermID) bool) {
			e.ss.ForEach(ct.body, inst, yield)
		})
		idx.perTGD[i] = ids
		idx.total += len(ids)
	}
	return idx
}

// repairIndex derives the child state's index from its parent's: per TGD,
// inherited candidates are kept (re-checked for activity only when a head
// predicate occurs in the delta) and new candidates are
// discovered by ForEachDelta over the body (only when a body predicate
// occurs in the delta), then the two canonical-order runs merge. deltaLo is
// the parent's atom count: the delta atoms are exactly the insertion-index
// range [deltaLo, inst.Len()) of the parent-first materialised instance.
func (e *expander) repairIndex(par *trigIndex, inst *instance.Instance, deltaLo int32) *trigIndex {
	e.markDelta(inst, deltaLo)
	idx := &trigIndex{perTGD: make([][]logic.TupleID, len(e.ct))}
	for i := range e.ct {
		ct := &e.ct[i]
		kept := par.perTGD[i]
		if e.anyMarked(e.deps.headPreds[i]) && len(kept) > 0 {
			filtered := make([]logic.TupleID, 0, len(kept))
			for _, id := range kept {
				e.nRechecks++
				if e.isActive(ct, e.trig.Tuple(id)[1:], inst) {
					filtered = append(filtered, id)
				}
			}
			kept = filtered
		}
		if e.anyMarked(e.deps.bodyPreds[i]) {
			fresh := e.discoverActive(i, ct, inst, func(yield func([]logic.TermID) bool) {
				e.ss.ForEachDelta(ct.body, inst, deltaLo, yield)
			})
			kept = e.mergeCanonical(ct, kept, fresh)
		}
		idx.perTGD[i] = kept
		idx.total += len(kept)
	}
	return idx
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

// mergeCanonical merges two canonical-order, disjoint trigger-ID runs of one
// TGD into one canonical-order slice. Disjointness holds by construction: a
// fresh candidate's body homomorphism uses a delta atom, so it cannot equal
// an inherited (parent-instance) candidate.
func (e *expander) mergeCanonical(ct *compiledTGD, a, b []logic.TupleID) []logic.TupleID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]logic.TupleID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if e.compareTrig(ct, a[i], b[j]) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
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

// stateIndex computes the index of a popped state: inherited and repaired
// from the parent's index when one is supplied (the steady-state path),
// rebuilt from scratch otherwise (the root or the fullRescan baseline). The
// bool reports whether the repair path ran.
func (e *expander) stateIndex(par *trigIndex, inst *instance.Instance, deltaLo int32) (*trigIndex, bool) {
	if par != nil {
		return e.repairIndex(par, inst, deltaLo), true
	}
	return e.buildIndex(inst), false
}
